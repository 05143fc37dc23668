//! `WFD_*` environment overrides, centralized.
//!
//! Before this module every binary read its own `std::env::var`s. All
//! knobs now resolve through [`EnvOverrides`], with one precedence rule
//! everywhere:
//!
//! > **explicit builder value > environment variable > built-in default**
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `WFD_SWEEP_THREADS` (then `RAYON_NUM_THREADS`) | worker threads for `wfd_bench::sweep` | available parallelism |
//! | `WFD_EXPERIMENTS_DIR` | where bench artifacts are written | `target/experiments` |
//! | `WFD_METRICS` | observability: `0`/unset = off, `1`/`on` = on, `heartbeat[=SECS]` = on + stderr heartbeat | off |
//!
//! The `resolve_*` methods each take the *explicit* (builder/CLI) value
//! as an `Option` and apply that rule. [`EnvOverrides::from_lookup`]
//! exists so precedence is unit-testable without mutating the real
//! process environment (env mutation races under `cargo test`'s
//! threaded runner).

use crate::obs::Obs;
use std::path::PathBuf;
use std::time::Duration;

/// Heartbeat interval used by `WFD_METRICS=heartbeat` without `=SECS`.
const DEFAULT_HEARTBEAT_SECS: u64 = 5;

/// What `WFD_METRICS` asked for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MetricsMode {
    /// No metrics (the default): [`Obs::off`].
    #[default]
    Off,
    /// Collect metrics: [`Obs::on`].
    On,
    /// Collect metrics and print a progress heartbeat to stderr at most
    /// once per this many seconds: [`Obs::with_heartbeat`].
    Heartbeat(u64),
}

/// A parsed snapshot of the `WFD_*` environment knobs. See the
/// module docs ([`crate::env`]) for the variables and the precedence rule.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EnvOverrides {
    /// `WFD_SWEEP_THREADS` (or, failing that, `RAYON_NUM_THREADS`), if
    /// set and a positive integer.
    pub sweep_threads: Option<usize>,
    /// `WFD_EXPERIMENTS_DIR`, if set and non-empty.
    pub experiments_dir: Option<PathBuf>,
    /// Parsed `WFD_METRICS`.
    pub metrics: MetricsMode,
}

impl EnvOverrides {
    /// Read the real process environment.
    pub fn from_env() -> Self {
        Self::from_lookup(|key| std::env::var(key).ok())
    }

    /// Build from an arbitrary key → value function (deterministic and
    /// race-free for tests; [`EnvOverrides::from_env`] passes
    /// `std::env::var`).
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Self {
        let positive = |key: &str| {
            lookup(key)
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
        };
        EnvOverrides {
            sweep_threads: positive("WFD_SWEEP_THREADS").or_else(|| positive("RAYON_NUM_THREADS")),
            experiments_dir: lookup("WFD_EXPERIMENTS_DIR")
                .filter(|v| !v.is_empty())
                .map(PathBuf::from),
            metrics: parse_metrics(lookup("WFD_METRICS").as_deref()),
        }
    }

    /// Worker threads for sweeps: `explicit`, else `WFD_SWEEP_THREADS`
    /// (then `RAYON_NUM_THREADS`), else available parallelism (min 1).
    pub fn resolve_sweep_threads(&self, explicit: Option<usize>) -> usize {
        explicit
            .or(self.sweep_threads)
            .unwrap_or_else(available_parallelism)
            .max(1)
    }

    /// Artifact directory: `explicit`, else `WFD_EXPERIMENTS_DIR`, else
    /// `target/experiments`.
    pub fn resolve_experiments_dir(&self, explicit: Option<PathBuf>) -> PathBuf {
        explicit
            .or_else(|| self.experiments_dir.clone())
            .unwrap_or_else(|| PathBuf::from("target/experiments"))
    }

    /// Observability handle: `explicit` (an `Obs` already chosen by a
    /// builder or CLI flag), else whatever `WFD_METRICS` asks for, else
    /// off. When the env decides, a **fresh** store is built per call.
    pub fn resolve_obs(&self, explicit: Option<Obs>) -> Obs {
        if let Some(obs) = explicit {
            return obs;
        }
        match self.metrics {
            MetricsMode::Off => Obs::off(),
            MetricsMode::On => Obs::on(),
            MetricsMode::Heartbeat(secs) => Obs::with_heartbeat(Duration::from_secs(secs)),
        }
    }
}

fn parse_metrics(raw: Option<&str>) -> MetricsMode {
    let Some(raw) = raw else {
        return MetricsMode::Off;
    };
    let raw = raw.trim();
    match raw.to_ascii_lowercase().as_str() {
        "" | "0" | "off" | "false" | "no" => MetricsMode::Off,
        "1" | "on" | "true" | "yes" => MetricsMode::On,
        "heartbeat" => MetricsMode::Heartbeat(DEFAULT_HEARTBEAT_SECS),
        other => match other.strip_prefix("heartbeat=") {
            Some(secs) => MetricsMode::Heartbeat(
                secs.parse::<u64>()
                    .ok()
                    .filter(|&s| s > 0)
                    .unwrap_or(DEFAULT_HEARTBEAT_SECS),
            ),
            // Unknown spellings collect metrics rather than silently
            // dropping them: the user clearly asked for *something*.
            None => MetricsMode::On,
        },
    }
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_of(pairs: &[(&str, &str)]) -> EnvOverrides {
        let owned: Vec<(String, String)> = pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        EnvOverrides::from_lookup(move |key| {
            owned.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
        })
    }

    #[test]
    fn empty_environment_is_all_defaults() {
        let env = env_of(&[]);
        assert_eq!(env, EnvOverrides::default());
        assert_eq!(env.resolve_sweep_threads(None), available_parallelism());
        assert_eq!(
            env.resolve_experiments_dir(None),
            PathBuf::from("target/experiments")
        );
        assert!(!env.resolve_obs(None).is_on());
    }

    #[test]
    fn explicit_beats_env_beats_default() {
        let env = env_of(&[
            ("WFD_SWEEP_THREADS", "2"),
            ("WFD_EXPERIMENTS_DIR", "custom/dir"),
        ]);
        // env beats default
        assert_eq!(env.resolve_sweep_threads(None), 2);
        assert_eq!(
            env.resolve_experiments_dir(None),
            PathBuf::from("custom/dir")
        );
        // explicit beats env
        assert_eq!(env.resolve_sweep_threads(Some(5)), 5);
        assert_eq!(
            env.resolve_experiments_dir(Some(PathBuf::from("cli/dir"))),
            PathBuf::from("cli/dir")
        );
    }

    #[test]
    fn sweep_threads_fall_back_to_rayon_convention() {
        assert_eq!(
            env_of(&[("RAYON_NUM_THREADS", "6")]).resolve_sweep_threads(None),
            6
        );
        assert_eq!(
            env_of(&[("WFD_SWEEP_THREADS", "2"), ("RAYON_NUM_THREADS", "6")])
                .resolve_sweep_threads(None),
            2
        );
    }

    #[test]
    fn garbage_numbers_are_ignored() {
        let env = env_of(&[("WFD_SWEEP_THREADS", "zero"), ("RAYON_NUM_THREADS", "0")]);
        assert_eq!(env.sweep_threads, None);
    }

    #[test]
    fn metrics_spellings() {
        assert_eq!(env_of(&[]).metrics, MetricsMode::Off);
        for off in ["0", "off", "false", "no", ""] {
            assert_eq!(env_of(&[("WFD_METRICS", off)]).metrics, MetricsMode::Off);
        }
        for on in ["1", "on", "true", "YES"] {
            assert_eq!(env_of(&[("WFD_METRICS", on)]).metrics, MetricsMode::On);
        }
        assert_eq!(
            env_of(&[("WFD_METRICS", "heartbeat")]).metrics,
            MetricsMode::Heartbeat(DEFAULT_HEARTBEAT_SECS)
        );
        assert_eq!(
            env_of(&[("WFD_METRICS", "heartbeat=30")]).metrics,
            MetricsMode::Heartbeat(30)
        );
        assert_eq!(
            env_of(&[("WFD_METRICS", "heartbeat=bogus")]).metrics,
            MetricsMode::Heartbeat(DEFAULT_HEARTBEAT_SECS)
        );
    }

    #[test]
    fn resolve_obs_precedence() {
        let env = env_of(&[("WFD_METRICS", "1")]);
        // env beats default
        assert!(env.resolve_obs(None).is_on());
        // explicit beats env — even an explicit *off*.
        assert!(!env.resolve_obs(Some(Obs::off())).is_on());
        let explicit = Obs::on();
        let resolved = env.resolve_obs(Some(explicit.clone()));
        explicit.add(crate::obs::CounterId::SweepRuns, 1);
        // Same store, not a fresh one.
        assert_eq!(
            resolved
                .snapshot()
                .unwrap()
                .counter(crate::obs::CounterId::SweepRuns),
            1
        );
    }
}
