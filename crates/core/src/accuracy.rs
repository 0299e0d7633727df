//! Accuracy of approximate monitoring (Sec. 6.2, Eq. 6–8, Tables 11–12).
//!
//! Approximate common preference relations can filter out objects that a
//! member user actually considers Pareto-optimal (false negatives), which in
//! turn can let dominated objects sneak into a user's reported frontier
//! (false positives). Accuracy is measured against the exact frontiers by
//! micro-averaged precision, recall and F-measure:
//!
//! ```text
//! precision = Σ_c |P̂_c ∩ P_c| / Σ_c |P̂_c|
//! recall    = Σ_c |P̂_c ∩ P_c| / Σ_c |P_c|
//! ```

use std::collections::HashSet;

use pm_model::ObjectId;

/// Per-user (or aggregated) confusion matrix with respect to the exact
/// frontier (Table 7 of the paper).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfusionMatrix {
    /// Objects reported Pareto-optimal that truly are (region IV in Fig. 2).
    pub true_positives: u64,
    /// Objects reported Pareto-optimal that are not (region V).
    pub false_positives: u64,
    /// Truly Pareto-optimal objects that were missed (region III).
    pub false_negatives: u64,
}

impl ConfusionMatrix {
    /// Accumulates another matrix into this one.
    pub fn absorb(&mut self, other: ConfusionMatrix) {
        self.true_positives += other.true_positives;
        self.false_positives += other.false_positives;
        self.false_negatives += other.false_negatives;
    }

    /// Precision (Eq. 6). Defined as 1 when nothing was reported.
    pub fn precision(&self) -> f64 {
        let reported = self.true_positives + self.false_positives;
        if reported == 0 {
            1.0
        } else {
            self.true_positives as f64 / reported as f64
        }
    }

    /// Recall (Eq. 7). Defined as 1 when there was nothing to find.
    pub fn recall(&self) -> f64 {
        let relevant = self.true_positives + self.false_negatives;
        if relevant == 0 {
            1.0
        } else {
            self.true_positives as f64 / relevant as f64
        }
    }

    /// F-measure: the harmonic mean of precision and recall.
    pub fn f_measure(&self) -> f64 {
        let (p, r) = (self.precision(), self.recall());
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// The accuracy of an approximate monitor, aggregated over all users.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AccuracyReport {
    /// Aggregated confusion counts.
    pub matrix: ConfusionMatrix,
    /// Number of users compared.
    pub users: usize,
}

impl AccuracyReport {
    /// Compares per-user frontiers: `exact[c]` is the ground-truth frontier
    /// of user `c` (e.g. from an unfiltered [`crate::Monitor`]), `approx[c]` the
    /// frontier reported by the approximate monitor.
    ///
    /// # Panics
    /// Panics if the two slices have different lengths.
    pub fn compare(exact: &[Vec<ObjectId>], approx: &[Vec<ObjectId>]) -> Self {
        assert_eq!(
            exact.len(),
            approx.len(),
            "exact and approximate frontiers must cover the same users"
        );
        let mut matrix = ConfusionMatrix::default();
        for (truth, reported) in exact.iter().zip(approx) {
            let truth_set: HashSet<ObjectId> = truth.iter().copied().collect();
            let reported_set: HashSet<ObjectId> = reported.iter().copied().collect();
            let tp = truth_set.intersection(&reported_set).count() as u64;
            matrix.absorb(ConfusionMatrix {
                true_positives: tp,
                false_positives: reported_set.len() as u64 - tp,
                false_negatives: truth_set.len() as u64 - tp,
            });
        }
        Self {
            matrix,
            users: exact.len(),
        }
    }

    /// Precision (Eq. 6).
    pub fn precision(&self) -> f64 {
        self.matrix.precision()
    }

    /// Recall (Eq. 7).
    pub fn recall(&self) -> f64 {
        self.matrix.recall()
    }

    /// F-measure.
    pub fn f_measure(&self) -> f64 {
        self.matrix.f_measure()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u64]) -> Vec<ObjectId> {
        v.iter().map(|&i| ObjectId::new(i)).collect()
    }

    #[test]
    fn perfect_agreement_scores_one() {
        let exact = vec![ids(&[1, 2]), ids(&[3])];
        let report = AccuracyReport::compare(&exact, &exact);
        assert_eq!(report.precision(), 1.0);
        assert_eq!(report.recall(), 1.0);
        assert_eq!(report.f_measure(), 1.0);
        assert_eq!(report.users, 2);
    }

    #[test]
    fn false_negatives_reduce_recall_only() {
        let exact = vec![ids(&[1, 2, 3, 4])];
        let approx = vec![ids(&[1, 2])];
        let report = AccuracyReport::compare(&exact, &approx);
        assert_eq!(report.precision(), 1.0);
        assert_eq!(report.recall(), 0.5);
        assert!((report.f_measure() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn false_positives_reduce_precision_only() {
        let exact = vec![ids(&[1, 2])];
        let approx = vec![ids(&[1, 2, 3, 4])];
        let report = AccuracyReport::compare(&exact, &approx);
        assert_eq!(report.precision(), 0.5);
        assert_eq!(report.recall(), 1.0);
    }

    #[test]
    fn aggregation_is_micro_averaged() {
        // user 0: 1 TP out of 1 reported / 2 relevant;
        // user 1: 3 TP out of 4 reported / 3 relevant.
        let exact = vec![ids(&[1, 2]), ids(&[10, 11, 12])];
        let approx = vec![ids(&[1]), ids(&[10, 11, 12, 13])];
        let report = AccuracyReport::compare(&exact, &approx);
        assert_eq!(report.matrix.true_positives, 4);
        assert_eq!(report.matrix.false_positives, 1);
        assert_eq!(report.matrix.false_negatives, 1);
        assert_eq!(report.precision(), 4.0 / 5.0);
        assert_eq!(report.recall(), 4.0 / 5.0);
    }

    #[test]
    fn empty_frontiers_are_perfectly_accurate() {
        let report = AccuracyReport::compare(&[vec![]], &[vec![]]);
        assert_eq!(report.precision(), 1.0);
        assert_eq!(report.recall(), 1.0);
        assert_eq!(report.f_measure(), 1.0);
    }

    #[test]
    fn totally_wrong_report_scores_zero_f() {
        let exact = vec![ids(&[1])];
        let approx = vec![ids(&[2])];
        let report = AccuracyReport::compare(&exact, &approx);
        assert_eq!(report.precision(), 0.0);
        assert_eq!(report.recall(), 0.0);
        assert_eq!(report.f_measure(), 0.0);
    }

    #[test]
    #[should_panic(expected = "same users")]
    fn mismatched_user_counts_panic() {
        AccuracyReport::compare(&[vec![]], &[vec![], vec![]]);
    }

    #[test]
    fn confusion_matrix_absorb_accumulates() {
        let mut m = ConfusionMatrix {
            true_positives: 1,
            false_positives: 2,
            false_negatives: 3,
        };
        m.absorb(ConfusionMatrix {
            true_positives: 4,
            false_positives: 5,
            false_negatives: 6,
        });
        assert_eq!(m.true_positives, 5);
        assert_eq!(m.false_positives, 7);
        assert_eq!(m.false_negatives, 9);
    }
}
