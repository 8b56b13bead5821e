//! The user agent: the paper's "privacy in the hands of individuals".
//!
//! A [`UserAgent`] owns a user's private profile and a privacy budget. It
//! inspects a coordinator [`Announcement`], *refuses* to participate when
//! the announced sketching plan would overspend the user's ε budget (the
//! user — not the coordinator — enforces Corollary 3.4), and otherwise
//! produces a wire-format [`Submission`] from private randomness.

use crate::messages::{Announcement, Submission};
use psketch_core::codec::encode_bundle;
use psketch_core::{Error, PrivacyAccountant, Profile, Sketcher, UserId};
use rand::Rng;

/// A user-side participant with a profile and an ε budget.
#[derive(Debug)]
pub struct UserAgent {
    id: UserId,
    profile: Profile,
    accountant: PrivacyAccountant,
}

impl UserAgent {
    /// Creates an agent.
    ///
    /// # Panics
    ///
    /// As [`PrivacyAccountant::new`] (invalid p/budget).
    #[must_use]
    pub fn new(id: UserId, profile: Profile, p: f64, epsilon_budget: f64) -> Self {
        Self {
            id,
            profile,
            accountant: PrivacyAccountant::new(p, epsilon_budget),
        }
    }

    /// The user's id.
    #[must_use]
    pub fn id(&self) -> UserId {
        self.id
    }

    /// ε spent so far.
    #[must_use]
    pub fn spent_epsilon(&self) -> f64 {
        self.accountant.spent_epsilon()
    }

    /// Whether the agent would accept this announcement (budget check,
    /// parameter check, bias agreement) without committing anything.
    #[must_use]
    pub fn can_participate(&self, announcement: &Announcement) -> bool {
        let Ok(params) = announcement.validate() else {
            return false;
        };
        if (params.p() - self.accountant.p()).abs() > 1e-12 {
            return false;
        }
        self.accountant.remaining_sketches() >= announcement.subsets.len() as u32
    }

    /// Participates: charges the budget, runs Algorithm 1 per announced
    /// subset with the agent's private randomness, and returns the
    /// wire-format submission.
    ///
    /// # Errors
    ///
    /// * [`Error::BudgetExceeded`] when the plan would overspend (nothing
    ///   is charged, nothing is published);
    /// * parameter validation errors from the announcement;
    /// * [`Error::InvalidBias`] when the announcement's bias differs from
    ///   the budgeted one (the accountant's arithmetic would be wrong).
    ///
    /// Individual Algorithm 1 failures (key-space exhaustion) do not abort
    /// the submission; they are recorded in `skipped`, as the paper's
    /// failure semantics prescribe.
    pub fn participate<R: Rng + ?Sized>(
        &mut self,
        announcement: &Announcement,
        rng: &mut R,
    ) -> Result<Submission, Error> {
        let params = announcement.validate()?;
        if (params.p() - self.accountant.p()).abs() > 1e-12 {
            return Err(Error::InvalidBias { p: params.p() });
        }
        // Charge the *whole* plan atomically before publishing anything:
        // a partial publication would still leak.
        self.accountant.charge(announcement.subsets.len() as u32)?;

        let sketcher = Sketcher::new(params);
        let mut sketches = Vec::with_capacity(announcement.subsets.len());
        let mut skipped = Vec::new();
        for (i, subset) in announcement.subsets.iter().enumerate() {
            match sketcher.sketch(self.id, &self.profile, subset, rng) {
                Ok(sketch) => sketches.push(sketch),
                Err(Error::KeySpaceExhausted { .. }) => skipped.push(i as u32),
                Err(e) => return Err(e),
            }
        }
        Ok(Submission {
            user: self.id,
            database_id: announcement.database_id,
            bundle: encode_bundle(params.sketch_bits(), &sketches),
            skipped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psketch_core::BitSubset;
    use psketch_prf::{GlobalKey, Prg};
    use rand::SeedableRng;

    fn announcement(n_subsets: u32, p: f64) -> Announcement {
        Announcement {
            database_id: 1,
            p,
            sketch_bits: 10,
            global_key: *GlobalKey::from_seed(2).as_bytes(),
            subsets: (0..n_subsets).map(BitSubset::single).collect(),
        }
    }

    fn agent(budget: f64, p: f64) -> UserAgent {
        UserAgent::new(
            UserId(3),
            Profile::from_bits(&[true, false, true, true]),
            p,
            budget,
        )
    }

    #[test]
    fn participates_within_budget() {
        let ann = announcement(2, 0.45);
        let mut agent = agent(100.0, 0.45);
        assert!(agent.can_participate(&ann));
        let mut rng = Prg::seed_from_u64(4);
        let sub = agent.participate(&ann, &mut rng).unwrap();
        assert!(sub.skipped.is_empty());
        let decoded = sub.decode(&ann).unwrap();
        assert_eq!(decoded.len(), 2);
        assert!(agent.spent_epsilon() > 0.0);
    }

    #[test]
    fn refuses_when_budget_too_small() {
        // p = 0.4: per sketch ε ≈ 4.06; budget 1.0 affords zero sketches.
        let ann = announcement(1, 0.4);
        let mut agent = agent(1.0, 0.4);
        assert!(!agent.can_participate(&ann));
        let mut rng = Prg::seed_from_u64(5);
        let before = agent.spent_epsilon();
        assert!(matches!(
            agent.participate(&ann, &mut rng),
            Err(Error::BudgetExceeded { .. })
        ));
        assert_eq!(agent.spent_epsilon(), before, "refusal must not spend");
    }

    #[test]
    fn refuses_mismatched_bias() {
        let ann = announcement(1, 0.3);
        let mut agent = agent(100.0, 0.45);
        assert!(!agent.can_participate(&ann));
        let mut rng = Prg::seed_from_u64(6);
        assert!(matches!(
            agent.participate(&ann, &mut rng),
            Err(Error::InvalidBias { .. })
        ));
    }

    #[test]
    fn refuses_invalid_announcement() {
        let mut ann = announcement(1, 0.45);
        ann.sketch_bits = 0;
        let mut agent = agent(100.0, 0.45);
        assert!(!agent.can_participate(&ann));
        let mut rng = Prg::seed_from_u64(7);
        assert!(agent.participate(&ann, &mut rng).is_err());
    }

    #[test]
    fn budget_depletes_across_rounds() {
        let ann = announcement(1, 0.45);
        // Budget for ~2 sketches at p = 0.45 (per-sketch ε ≈ 1.23).
        let mut agent = agent(4.0, 0.45);
        let mut rng = Prg::seed_from_u64(8);
        agent.participate(&ann, &mut rng).unwrap();
        agent.participate(&ann, &mut rng).unwrap();
        assert!(matches!(
            agent.participate(&ann, &mut rng),
            Err(Error::BudgetExceeded { .. })
        ));
    }
}
