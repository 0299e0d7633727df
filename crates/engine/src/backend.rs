//! Backend selection: how each shard's [`Monitor`] is configured.

use std::fmt;

use pm_cluster::{ApproxConfig, Clustering, ExactMeasure};
use pm_core::{Filter, HistoryMode, Lifetime, Monitor};
use pm_porder::Preference;

/// Which monitoring algorithm a shard runs over its slice of the user
/// population.
///
/// The FilterThenVerify variants cluster each shard's users independently
/// (Jaccard similarity on exact common preference relations, Sec. 5 of the
/// paper); clustering quality degrades gracefully as shards get smaller.
/// Append-only [`BackendSpec::FilterThenVerify`] stays exact under any
/// clustering (Lemma 4.6); the approximate and sliding-window variants
/// carry the paper's approximation error, whose exact magnitude therefore
/// depends on the per-shard clusterings (see [`crate::ShardedEngine`]).
#[derive(Debug, Clone, PartialEq)]
pub enum BackendSpec {
    /// Alg. 1: per-user baseline, append-only.
    Baseline {
        /// Retention discipline of the backfill history:
        /// [`HistoryMode::Compact`] retains the skyline union over every
        /// observed preference, keeping REGISTER/UPDATE backfill exact for
        /// all of them at a fraction of the memory.
        history: HistoryMode,
    },
    /// Alg. 2: FilterThenVerify with exact common preferences, append-only.
    FilterThenVerify {
        /// Branch cut `h` for the agglomerative clustering.
        branch_cut: f64,
        /// Retained-history discipline (see [`BackendSpec::Baseline`]).
        history: HistoryMode,
    },
    /// Sec. 6: FilterThenVerify with approximate common preferences.
    FilterThenVerifyApprox {
        /// Branch cut `h` for the agglomerative clustering.
        branch_cut: f64,
        /// θ1/θ2 thresholds of Alg. 3.
        config: ApproxConfig,
        /// Retained-history discipline (see [`BackendSpec::Baseline`]).
        history: HistoryMode,
    },
    /// Alg. 4: per-user baseline over a sliding window of `window` objects.
    BaselineSw {
        /// Window size `W`.
        window: usize,
    },
    /// Alg. 5: sliding-window FilterThenVerify.
    FilterThenVerifySw {
        /// Branch cut `h` for the agglomerative clustering.
        branch_cut: f64,
        /// Window size `W`.
        window: usize,
    },
    /// Sec. 7+6: sliding-window FilterThenVerify with approximate common
    /// preferences.
    FilterThenVerifyApproxSw {
        /// Branch cut `h` for the agglomerative clustering.
        branch_cut: f64,
        /// θ1/θ2 thresholds of Alg. 3.
        config: ApproxConfig,
        /// Window size `W`.
        window: usize,
    },
}

impl BackendSpec {
    /// The append-only baseline with unlimited history.
    pub fn baseline() -> Self {
        BackendSpec::Baseline {
            history: HistoryMode::Unlimited,
        }
    }

    /// Append-only FilterThenVerify with unlimited history.
    pub fn ftv(branch_cut: f64) -> Self {
        BackendSpec::FilterThenVerify {
            branch_cut,
            history: HistoryMode::Unlimited,
        }
    }

    /// The lifetime axis: how long the backend keeps an object alive.
    pub fn lifetime(&self) -> Lifetime {
        match *self {
            BackendSpec::Baseline { history }
            | BackendSpec::FilterThenVerify { history, .. }
            | BackendSpec::FilterThenVerifyApprox { history, .. } => Lifetime::History(history),
            BackendSpec::BaselineSw { window }
            | BackendSpec::FilterThenVerifySw { window, .. }
            | BackendSpec::FilterThenVerifyApproxSw { window, .. } => Lifetime::Window(window),
        }
    }

    /// Builds one shard's monitor over the given (shard-local) preferences.
    ///
    /// The monitor compiles its preferences (user-level and cluster-level
    /// virtual users alike) to the bitset form of
    /// [`pm_porder::CompiledPreference`] before the first arrival, so each
    /// shard's dominance hot path runs on word-indexed bit tests regardless
    /// of the backend chosen here. The FilterThenVerify backends are built
    /// over an incrementally maintained [`Clustering`], so the shard can
    /// serve REGISTER/UNREGISTER with dendrogram-local repair instead of a
    /// full re-clustering.
    pub fn build(&self, preferences: &[Preference]) -> Monitor {
        let maintained = |branch_cut: f64| {
            Filter::maintained(Clustering::new(
                preferences,
                ExactMeasure::Jaccard,
                branch_cut,
            ))
        };
        let filter = match *self {
            BackendSpec::Baseline { .. } | BackendSpec::BaselineSw { .. } => None,
            BackendSpec::FilterThenVerify { branch_cut, .. }
            | BackendSpec::FilterThenVerifySw { branch_cut, .. } => Some(maintained(branch_cut)),
            BackendSpec::FilterThenVerifyApprox {
                branch_cut, config, ..
            }
            | BackendSpec::FilterThenVerifyApproxSw {
                branch_cut, config, ..
            } => Some(maintained(branch_cut).approx(config)),
        };
        Monitor::new(preferences, self.lifetime(), filter)
    }

    /// Whether the backend runs skyline-union history compaction — i.e.
    /// whether its monitors react to
    /// [`pm_core::Monitor::observe_preference`]. The engine uses this to
    /// skip the engine-global preference broadcast entirely for backends
    /// where it would be a no-op.
    pub fn compacts_history(&self) -> bool {
        matches!(
            self.lifetime(),
            Lifetime::History(HistoryMode::Compact { .. })
        )
    }

    /// Whether the backend expires objects from a sliding window.
    pub fn is_sliding(&self) -> bool {
        matches!(self.lifetime(), Lifetime::Window(_))
    }

    /// Parses a backend description, as accepted by `pm-server --backend`.
    /// The append-only backends accept an optional trailing `compact`,
    /// which switches on skyline-union compaction of the backfill history
    /// (backfill stays exact for every observed preference), optionally
    /// followed by a hard cap on top. A cap or window of zero is rejected —
    /// it would silently keep nothing alive.
    ///
    /// * `baseline[:compact[:<C>]]`
    /// * `ftv:<h>[:compact[:<C>]]` — e.g. `ftv:0.55`, `ftv:0.55:compact`
    ///   or `ftv:0.55:compact:100000`
    /// * `ftv-approx:<h>:<theta1>:<theta2>[:compact[:<C>]]`
    /// * `baseline-sw:<W>` — e.g. `baseline-sw:400`
    /// * `ftv-sw:<h>:<W>`
    /// * `ftv-approx-sw:<h>:<theta1>:<theta2>:<W>`
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut parts = text.split(':');
        let kind = parts.next().unwrap_or_default();
        let rest: Vec<&str> = parts.collect();
        let arg = |i: usize| -> Result<&str, String> {
            rest.get(i)
                .copied()
                .ok_or_else(|| format!("backend `{kind}` is missing argument {}", i + 1))
        };
        let float = |i: usize| -> Result<f64, String> {
            arg(i)?
                .parse::<f64>()
                .map_err(|e| format!("bad float in backend spec: {e}"))
        };
        let uint = |i: usize| -> Result<usize, String> {
            arg(i)?
                .parse::<usize>()
                .map_err(|e| format!("bad integer in backend spec: {e}"))
        };
        let expect_args = |n: usize| -> Result<(), String> {
            if rest.len() == n {
                Ok(())
            } else {
                Err(format!(
                    "backend `{kind}` takes {n} argument(s), got {}",
                    rest.len()
                ))
            }
        };
        // A history cap must be a positive object count: zero would
        // silently retain nothing, which is never what a cap means.
        let cap = |i: usize| -> Result<usize, String> {
            match uint(i)? {
                0 => Err(format!(
                    "backend `{kind}`: history cap must be at least 1 \
                     (omit the cap for an unlimited history)"
                )),
                cap => Ok(cap),
            }
        };
        // A window must hold at least one object.
        let window = |i: usize| -> Result<usize, String> {
            match uint(i)? {
                0 => Err(format!("backend `{kind}`: window size must be at least 1")),
                window => Ok(window),
            }
        };
        // The optional history discipline starts at position `i`:
        // `compact` or `compact:<C>`.
        let history = |i: usize| -> Result<HistoryMode, String> {
            match rest.len() {
                n if n == i => Ok(HistoryMode::Unlimited),
                n if n == i + 1 && rest[i] == "compact" => Ok(HistoryMode::Compact { cap: None }),
                n if n == i + 2 && rest[i] == "compact" => Ok(HistoryMode::Compact {
                    cap: Some(cap(i + 1)?),
                }),
                n if n == i + 1 || n == i + 2 => Err(format!(
                    "backend `{kind}`: expected `compact[:<C>]`, got `{}` \
                     (a bare history cap is not supported: use `compact:<C>`)",
                    rest[i..].join(":")
                )),
                n => Err(format!(
                    "backend `{kind}` takes {i} argument(s) plus an optional \
                     `compact[:<C>]` history suffix, got {n} argument(s)"
                )),
            }
        };
        match kind {
            "baseline" => Ok(BackendSpec::Baseline {
                history: history(0)?,
            }),
            "ftv" => {
                let history = history(1)?;
                Ok(BackendSpec::FilterThenVerify {
                    branch_cut: float(0)?,
                    history,
                })
            }
            "ftv-approx" => {
                let history = history(3)?;
                Ok(BackendSpec::FilterThenVerifyApprox {
                    branch_cut: float(0)?,
                    config: ApproxConfig::new(uint(1)?, float(2)?),
                    history,
                })
            }
            "baseline-sw" => {
                expect_args(1)?;
                Ok(BackendSpec::BaselineSw { window: window(0)? })
            }
            "ftv-sw" => {
                expect_args(2)?;
                Ok(BackendSpec::FilterThenVerifySw {
                    branch_cut: float(0)?,
                    window: window(1)?,
                })
            }
            "ftv-approx-sw" => {
                expect_args(4)?;
                Ok(BackendSpec::FilterThenVerifyApproxSw {
                    branch_cut: float(0)?,
                    config: ApproxConfig::new(uint(1)?, float(2)?),
                    window: window(3)?,
                })
            }
            other => Err(format!(
                "unknown backend `{other}` (expected baseline, ftv, ftv-approx, baseline-sw, ftv-sw or ftv-approx-sw)"
            )),
        }
    }
}

impl fmt::Display for BackendSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let suffix = |history: &HistoryMode| match history {
            HistoryMode::Unlimited => String::new(),
            HistoryMode::Compact { cap: None } => ":compact".to_owned(),
            HistoryMode::Compact { cap: Some(cap) } => format!(":compact:{cap}"),
        };
        match self {
            BackendSpec::Baseline { history } => {
                write!(f, "baseline{}", suffix(history))
            }
            BackendSpec::FilterThenVerify {
                branch_cut,
                history,
            } => write!(f, "ftv:{branch_cut}{}", suffix(history)),
            BackendSpec::FilterThenVerifyApprox {
                branch_cut,
                config,
                history,
            } => write!(
                f,
                "ftv-approx:{branch_cut}:{}:{}{}",
                config.theta1,
                config.theta2,
                suffix(history)
            ),
            BackendSpec::BaselineSw { window } => write!(f, "baseline-sw:{window}"),
            BackendSpec::FilterThenVerifySw { branch_cut, window } => {
                write!(f, "ftv-sw:{branch_cut}:{window}")
            }
            BackendSpec::FilterThenVerifyApproxSw {
                branch_cut,
                config,
                window,
            } => write!(
                f,
                "ftv-approx-sw:{branch_cut}:{}:{}:{window}",
                config.theta1, config.theta2
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_through_display() {
        for text in [
            "baseline",
            "baseline:compact",
            "baseline:compact:100000",
            "ftv:0.55",
            "ftv:0.55:compact",
            "ftv:0.55:compact:100000",
            "ftv-approx:0.55:256:0.5",
            "ftv-approx:0.55:256:0.5:compact",
            "ftv-approx:0.55:256:0.5:compact:100000",
            "baseline-sw:400",
            "ftv-sw:0.55:400",
            "ftv-approx-sw:0.55:256:0.5:400",
        ] {
            let spec = BackendSpec::parse(text).expect(text);
            assert_eq!(spec.to_string(), text);
            assert_eq!(BackendSpec::parse(&spec.to_string()), Ok(spec));
        }
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for text in [
            "",
            "nope",
            "ftv",
            "ftv:x",
            "baseline:x",
            "baseline:1:2",
            "baseline:compact:x",
            "baseline:compact:1:2",
            "baseline:compactt",
            "ftv:0.5:10:20",
            "ftv:0.5:compact:x",
            "baseline-sw",
            "baseline-sw:400:100",
            "baseline-sw:compact",
            "ftv-sw:0.5",
            "ftv-sw:0.5:400:compact",
        ] {
            assert!(BackendSpec::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn zero_and_dangling_history_caps_are_rejected_with_clean_errors() {
        // A zero cap would silently retain nothing — reject it on the
        // compact hard cap of every append-only backend.
        for text in [
            "baseline:compact:0",
            "ftv:0.5:compact:0",
            "ftv-approx:0.5:64:0.5:compact:0",
        ] {
            let err = BackendSpec::parse(text).expect_err(text);
            assert!(err.contains("history cap must be at least 1"), "{err}");
        }
        // A bare cap (the truncating history that `compact:<C>` superseded)
        // is a clean error that says what to write instead.
        for text in [
            "baseline:0",
            "baseline:64",
            "ftv:0.5:0",
            "ftv:0.5:64",
            "ftv-approx:0.5:64:0.5:0",
            "ftv-approx:0.5:64:0.5:64",
        ] {
            let err = BackendSpec::parse(text).expect_err(text);
            assert!(err.contains("use `compact:<C>`"), "{err}");
        }
        // A zero window would panic in the window store — reject it here.
        for text in [
            "baseline-sw:0",
            "ftv-sw:0.5:0",
            "ftv-approx-sw:0.5:64:0.5:0",
        ] {
            let err = BackendSpec::parse(text).expect_err(text);
            assert!(err.contains("window size must be at least 1"), "{err}");
        }
        // A trailing `:` leaves an empty argument, which is not a cap.
        for text in [
            "baseline:",
            "ftv:0.5:",
            "baseline:compact:",
            "ftv-sw:0.5:400:",
        ] {
            assert!(BackendSpec::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn history_disciplines_parse_into_the_append_only_variants() {
        assert_eq!(
            BackendSpec::parse("baseline:compact"),
            Ok(BackendSpec::Baseline {
                history: HistoryMode::Compact { cap: None }
            })
        );
        assert_eq!(
            BackendSpec::parse("ftv:0.5:compact:512"),
            Ok(BackendSpec::FilterThenVerify {
                branch_cut: 0.5,
                history: HistoryMode::Compact { cap: Some(512) }
            })
        );
        assert_eq!(BackendSpec::parse("baseline"), Ok(BackendSpec::baseline()));
        assert_eq!(BackendSpec::parse("ftv:0.5"), Ok(BackendSpec::ftv(0.5)));
    }

    #[test]
    fn sliding_flag_matches_variants() {
        assert!(!BackendSpec::parse("baseline").unwrap().is_sliding());
        assert!(!BackendSpec::parse("ftv:0.5").unwrap().is_sliding());
        assert!(BackendSpec::parse("baseline-sw:10").unwrap().is_sliding());
        assert!(BackendSpec::parse("ftv-sw:0.5:10").unwrap().is_sliding());
    }

    #[test]
    fn every_backend_builds_a_monitor_over_empty_and_small_populations() {
        let prefs = vec![Preference::new(2), Preference::new(2)];
        for text in [
            "baseline",
            "baseline:compact",
            "ftv:0.5",
            "ftv:0.5:compact:64",
            "ftv-approx:0.5:64:0.5",
            "ftv-approx:0.5:64:0.5:compact",
            "baseline-sw:8",
            "ftv-sw:0.5:8",
            "ftv-approx-sw:0.5:64:0.5:8",
        ] {
            let spec = BackendSpec::parse(text).unwrap();
            let monitor = spec.build(&prefs);
            assert_eq!(monitor.num_users(), 2, "{text}");
            let empty = spec.build(&[]);
            assert_eq!(empty.num_users(), 0, "{text}");
        }
    }
}
