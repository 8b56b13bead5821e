//! Leveled structured logging with trace correlation.
//!
//! Records are key=value lines (logfmt-style) or JSON objects, written
//! to stderr, filtered by the `PSKETCH_LOG` environment variable:
//!
//! ```text
//! PSKETCH_LOG=warn                    # global level
//! PSKETCH_LOG=info,psketch::router=debug   # per-target overrides
//! PSKETCH_LOG_FORMAT=json             # JSON-lines instead of logfmt
//! ```
//!
//! Levels are `off < error < warn < info < debug`; the default is
//! `info`. Target overrides match by prefix, longest prefix wins, so
//! `psketch::router=debug` covers everything the router logs.
//!
//! Every record may carry a `trace` field — the query nonce the wire
//! protocol already propagates — rendered via [`crate::trace_hex`] so
//! one analyst query greps identically across router and shard logs.
//! Tests capture records in-process with [`Capture`].

use std::fmt::Display;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Log severity, ordered so `Error < Debug` (more severe = smaller).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// A failure the operator must see.
    Error,
    /// Degradation worth flagging (slow queries, shard outages).
    Warn,
    /// Life-cycle events (startup, recovery, compaction).
    Info,
    /// Per-request detail (trace-correlated timings).
    Debug,
}

impl Level {
    /// The record's level tag.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Error => "ERROR",
            Self::Warn => "WARN",
            Self::Info => "INFO",
            Self::Debug => "DEBUG",
        }
    }

    fn parse(s: &str) -> Option<Option<Self>> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" => Some(None),
            "error" => Some(Some(Self::Error)),
            "warn" | "warning" => Some(Some(Self::Warn)),
            "info" => Some(Some(Self::Info)),
            "debug" | "trace" => Some(Some(Self::Debug)),
            _ => None,
        }
    }
}

/// The parsed `PSKETCH_LOG` filter.
#[derive(Debug, Clone)]
struct Filter {
    /// `None` = everything off.
    default: Option<Level>,
    /// `(target prefix, level)` overrides.
    rules: Vec<(String, Option<Level>)>,
}

impl Filter {
    fn from_spec(spec: &str) -> Self {
        let mut filter = Self {
            default: Some(Level::Info),
            rules: Vec::new(),
        };
        for token in spec.split(',') {
            let token = token.trim();
            if token.is_empty() {
                continue;
            }
            if let Some((target, level)) = token.split_once('=') {
                if let Some(level) = Level::parse(level) {
                    filter.rules.push((target.trim().to_string(), level));
                }
            } else if let Some(level) = Level::parse(token) {
                filter.default = level;
            }
        }
        // Longest prefix first so the most specific rule wins.
        filter
            .rules
            .sort_by_key(|(t, _)| std::cmp::Reverse(t.len()));
        filter
    }

    fn from_env() -> Self {
        Self::from_spec(&std::env::var("PSKETCH_LOG").unwrap_or_default())
    }

    fn allows(&self, level: Level, target: &str) -> bool {
        let cap = self
            .rules
            .iter()
            .find(|(prefix, _)| target.starts_with(prefix.as_str()))
            .map_or(self.default, |&(_, level)| level);
        cap.is_some_and(|cap| level <= cap)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Logfmt,
    Json,
}

fn config() -> &'static (Filter, Format) {
    static CONFIG: OnceLock<(Filter, Format)> = OnceLock::new();
    CONFIG.get_or_init(|| {
        let format = match std::env::var("PSKETCH_LOG_FORMAT").as_deref() {
            Ok("json") => Format::Json,
            _ => Format::Logfmt,
        };
        (Filter::from_env(), format)
    })
}

/// Whether a record at this level/target would be written.
#[must_use]
pub fn enabled(level: Level, target: &str) -> bool {
    config().0.allows(level, target)
}

type CaptureBuffer = Arc<Mutex<Vec<String>>>;

fn capture_slot() -> &'static Mutex<Option<CaptureBuffer>> {
    static CAPTURE: Mutex<Option<CaptureBuffer>> = Mutex::new(None);
    &CAPTURE
}

/// An in-process log capture for tests: while alive, every record that
/// passes the filter is appended to this buffer instead of stderr.
#[derive(Debug)]
pub struct Capture {
    buffer: CaptureBuffer,
}

impl Capture {
    /// Installs a fresh capture buffer (replacing any previous one).
    ///
    /// # Panics
    ///
    /// Panics if the capture mutex is poisoned.
    #[must_use]
    pub fn install() -> Self {
        let buffer: CaptureBuffer = Arc::default();
        *capture_slot().lock().expect("capture slot poisoned") = Some(Arc::clone(&buffer));
        Self { buffer }
    }

    /// The records captured so far.
    ///
    /// # Panics
    ///
    /// Panics if the buffer mutex is poisoned.
    #[must_use]
    pub fn lines(&self) -> Vec<String> {
        self.buffer.lock().expect("capture buffer poisoned").clone()
    }
}

impl Drop for Capture {
    fn drop(&mut self) {
        let mut slot = capture_slot().lock().expect("capture slot poisoned");
        // Only uninstall our own buffer; a later Capture may have
        // replaced it.
        if slot
            .as_ref()
            .is_some_and(|current| Arc::ptr_eq(current, &self.buffer))
        {
            *slot = None;
        }
    }
}

/// A structured record under construction. Build with [`event`] (or the
/// level shorthands), attach fields, then [`Event::emit`].
#[derive(Debug)]
pub struct Event {
    level: Level,
    target: &'static str,
    trace: Option<u64>,
    fields: Vec<(&'static str, String)>,
}

/// Starts a record at `level` for `target`.
#[must_use]
pub fn event(level: Level, target: &'static str) -> Event {
    Event {
        level,
        target,
        trace: None,
        fields: Vec::new(),
    }
}

/// Starts an `ERROR` record.
#[must_use]
pub fn error(target: &'static str) -> Event {
    event(Level::Error, target)
}

/// Starts a `WARN` record.
#[must_use]
pub fn warn(target: &'static str) -> Event {
    event(Level::Warn, target)
}

/// Starts an `INFO` record.
#[must_use]
pub fn info(target: &'static str) -> Event {
    event(Level::Info, target)
}

/// Starts a `DEBUG` record.
#[must_use]
pub fn debug(target: &'static str) -> Event {
    event(Level::Debug, target)
}

impl Event {
    /// Attaches the trace correlation id (the query nonce).
    #[must_use]
    pub fn trace(mut self, trace_id: u64) -> Self {
        self.trace = Some(trace_id);
        self
    }

    /// Attaches a key=value field.
    #[must_use]
    pub fn field(mut self, key: &'static str, value: impl Display) -> Self {
        self.fields.push((key, value.to_string()));
        self
    }

    /// Renders and writes the record if the filter allows it.
    ///
    /// # Panics
    ///
    /// Panics if the capture mutexes are poisoned.
    pub fn emit(self, message: impl Display) {
        let (filter, format) = config();
        if !filter.allows(self.level, self.target) {
            return;
        }
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX));
        let line = match format {
            Format::Logfmt => self.render_logfmt(ts_ms, &message.to_string()),
            Format::Json => self.render_json(ts_ms, &message.to_string()),
        };
        let captured = capture_slot()
            .lock()
            .expect("capture slot poisoned")
            .clone();
        if let Some(buffer) = captured {
            buffer.lock().expect("capture buffer poisoned").push(line);
        } else {
            let mut err = std::io::stderr().lock();
            let _ = writeln!(err, "{line}");
        }
    }

    fn render_logfmt(&self, ts_ms: u64, message: &str) -> String {
        let mut line = format!(
            "ts={ts_ms} level={} target={} msg={}",
            self.level.as_str(),
            self.target,
            quote_logfmt(message)
        );
        if let Some(trace) = self.trace {
            let _ = write!(line, " trace={}", crate::trace_hex(trace));
        }
        for (key, value) in &self.fields {
            let _ = write!(line, " {key}={}", quote_logfmt(value));
        }
        line
    }

    fn render_json(&self, ts_ms: u64, message: &str) -> String {
        let mut line = format!(
            "{{\"ts_ms\":{ts_ms},\"level\":\"{}\",\"target\":\"{}\",\"msg\":\"{}\"",
            self.level.as_str().to_ascii_lowercase(),
            escape_json(self.target),
            escape_json(message)
        );
        if let Some(trace) = self.trace {
            let _ = write!(line, ",\"trace\":\"{}\"", crate::trace_hex(trace));
        }
        for (key, value) in &self.fields {
            let _ = write!(line, ",\"{}\":\"{}\"", escape_json(key), escape_json(value));
        }
        line.push('}');
        line
    }
}

/// Quotes a logfmt value when it contains spaces, quotes or equals.
fn quote_logfmt(value: &str) -> String {
    if !value.is_empty()
        && value
            .chars()
            .all(|c| !c.is_whitespace() && c != '"' && c != '=')
    {
        return value.to_string();
    }
    format!("\"{}\"", value.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Escapes a string for the inside of a JSON string literal: quotes,
/// backslashes and control characters. The one JSON escaper of the
/// workspace (log lines, `--json` output, shard-map files).
pub fn escape_json(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_levels_and_prefixes() {
        let f = Filter::from_spec("warn,psketch::router=debug,psketch::router::inner=off");
        assert!(f.allows(Level::Warn, "psketch::server"));
        assert!(!f.allows(Level::Info, "psketch::server"));
        assert!(f.allows(Level::Debug, "psketch::router"));
        assert!(!f.allows(Level::Error, "psketch::router::inner"));
        // Empty spec → info default.
        let d = Filter::from_spec("");
        assert!(d.allows(Level::Info, "anything"));
        assert!(!d.allows(Level::Debug, "anything"));
    }

    #[test]
    fn logfmt_rendering_quotes_and_traces() {
        let e = event(Level::Warn, "psketch::test")
            .trace(0xABCD)
            .field("shard", 2)
            .field("note", "two words");
        let line = e.render_logfmt(17, "slow query");
        assert_eq!(
            line,
            "ts=17 level=WARN target=psketch::test msg=\"slow query\" \
             trace=0x000000000000abcd shard=2 note=\"two words\""
        );
    }

    #[test]
    fn json_rendering_escapes() {
        let e = event(Level::Error, "t").field("k", "a\"b");
        let line = e.render_json(5, "m\nn");
        assert_eq!(
            line,
            "{\"ts_ms\":5,\"level\":\"error\",\"target\":\"t\",\"msg\":\"m\\nn\",\"k\":\"a\\\"b\"}"
        );
    }

    #[test]
    fn capture_collects_and_uninstalls() {
        let cap = Capture::install();
        warn("psketch::capture_test").trace(42).emit("hello");
        let lines = cap.lines();
        assert!(
            lines
                .iter()
                .any(|l| l.contains("hello") && l.contains(&crate::trace_hex(42))),
            "captured: {lines:?}"
        );
        drop(cap);
        // After drop, emitting must not panic (goes to stderr).
        warn("psketch::capture_test").emit("after drop");
    }
}
