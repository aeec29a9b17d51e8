//! Minimal flag parsing shared by the experiment binaries (keeps the
//! workspace inside the sanctioned dependency set — no clap).

use crate::crashsim::Layer;

/// Common knobs of the experiment binaries.
#[derive(Clone, Debug)]
pub struct Args {
    /// Maximum thread count of a sweep (x-axis of the figures).
    pub threads: usize,
    /// Per-point measurement duration in milliseconds.
    pub ms: u64,
    /// Runs averaged per point.
    pub repeats: usize,
    /// Flush penalty in spin iterations (see
    /// [`PmemPool::set_flush_penalty`](dss_pmem::PmemPool::set_flush_penalty)).
    pub penalty: u64,
    /// Flush granularity (`--granularity line|word`, experiment E7).
    pub granularity: dss_pmem::FlushGranularity,
    /// Writeback adversary: `"none"`, `"all"`, or `"random"` (E4/E7).
    pub adversary: String,
    /// Random seed where applicable.
    pub seed: u64,
    /// Memory backends to run (`--backend pmem --backend dram`; empty
    /// means the default pmem-only run, keeping historical output stable).
    pub backends: Vec<String>,
    /// Flush coalescing (`--coalesce on|off`, experiment E9). Default off.
    pub coalesce: bool,
    /// Per-address dependency drains (`--per-address on|off`, experiment
    /// E10; meaningful only with `--coalesce on`). Default off.
    pub per_address: bool,
    /// Bounded exponential backoff on contended retry loops
    /// (`--backoff on|off`, experiment E9). Default off.
    pub backoff: bool,
    /// Partial-recovery crash runs (`--partial-recovery on|off`,
    /// `crash_matrix` only): after a multi-threaded crash, only a subset
    /// of threads restarts and an adopter reclaims the orphaned registry
    /// slots (§3.3). Default off.
    pub partial_recovery: bool,
    /// Multi-process crash runs (`--multi-process on|off`, `crash_matrix`
    /// only): a child process creates a file-backed pool, is SIGKILLed
    /// mid-operation, and a fresh attach from the parent must recover and
    /// resolve every pre-crash operation. Default off.
    pub multi_process: bool,
    /// Execution layer / object family under test (`--layer
    /// cas|replicated|map`, `crash_matrix` only). Default
    /// [`Layer::Cas`].
    pub layer: Layer,
    /// Checker pipeline (`--mode monolithic|partitioned`,
    /// `check_histories` only): `monolithic` is the classic bounded
    /// Wing–Gong search (the ground-truth oracle, histories capped at
    /// `MAX_OPS`); `partitioned` is the segmented/fast-path pipeline that
    /// checks full-length histories. Default partitioned.
    pub mode: CheckMode,
    /// Override of the per-window operation bound (`--max-ops <n>`,
    /// `check_histories` only); `None` keeps the checker's default.
    pub max_ops: Option<usize>,
}

/// Which checking pipeline `check_histories` runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckMode {
    /// The classic bounded search ([`dss_checker::check`]).
    Monolithic,
    /// The segmented + fast-path pipeline
    /// ([`dss_checker::check_records`]), full-length histories.
    Partitioned,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            threads: 8,
            ms: 200,
            repeats: 3,
            penalty: 20,
            granularity: dss_pmem::FlushGranularity::Line,
            adversary: "none".into(),
            seed: 1,
            backends: Vec::new(),
            coalesce: false,
            per_address: false,
            backoff: false,
            partial_recovery: false,
            multi_process: false,
            layer: Layer::Cas,
            mode: CheckMode::Partitioned,
            max_ops: None,
        }
    }
}

fn parse_switch(flag: &str, val: &str) -> bool {
    match val {
        "on" => true,
        "off" => false,
        v => panic!("{flag} {v}: expected on|off"),
    }
}

/// Parses `std::env::args`.
///
/// # Panics
///
/// Panics with a usage hint on unknown flags or malformed values.
pub fn parse() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match flag.as_str() {
            "--threads" => args.threads = val().parse().expect("--threads <usize>"),
            "--ms" => args.ms = val().parse().expect("--ms <u64>"),
            "--repeats" => args.repeats = val().parse().expect("--repeats <usize>"),
            "--penalty" => args.penalty = val().parse().expect("--penalty <u64>"),
            "--granularity" => args.granularity = dss_pmem::FlushGranularity::parse(&val()),
            "--adversary" => args.adversary = val(),
            "--seed" => args.seed = val().parse().expect("--seed <u64>"),
            "--backend" => args.backends.push(val()),
            "--coalesce" => args.coalesce = parse_switch("--coalesce", &val()),
            "--per-address" => args.per_address = parse_switch("--per-address", &val()),
            "--backoff" => args.backoff = parse_switch("--backoff", &val()),
            "--partial-recovery" => {
                args.partial_recovery = parse_switch("--partial-recovery", &val());
            }
            "--multi-process" => args.multi_process = parse_switch("--multi-process", &val()),
            "--layer" => args.layer = Layer::parse(&val()),
            "--mode" => {
                args.mode = match val().as_str() {
                    "monolithic" => CheckMode::Monolithic,
                    "partitioned" => CheckMode::Partitioned,
                    m => panic!("--mode {m}: expected monolithic|partitioned"),
                }
            }
            "--max-ops" => args.max_ops = Some(val().parse().expect("--max-ops <usize>")),
            other => panic!(
                "unknown flag {other}; known: --threads --ms --repeats --penalty \
                 --granularity --adversary --seed --backend --coalesce --per-address --backoff \
                 --partial-recovery --multi-process --layer --mode --max-ops"
            ),
        }
    }
    args
}

impl Args {
    /// The configured memory backends, in flag order; defaults to
    /// pmem-only when no `--backend` flag was given.
    pub fn parsed_backends(&self) -> Vec<crate::adapter::Backend> {
        if self.backends.is_empty() {
            vec![crate::adapter::Backend::Pmem]
        } else {
            self.backends.iter().map(|b| crate::adapter::Backend::parse(b)).collect()
        }
    }

    /// The configured writeback adversary.
    pub fn writeback_adversary(&self) -> dss_pmem::WritebackAdversary {
        match self.adversary.as_str() {
            "none" => dss_pmem::WritebackAdversary::None,
            "all" => dss_pmem::WritebackAdversary::All,
            "random" => dss_pmem::WritebackAdversary::Random { seed: self.seed, prob: 0.5 },
            a => panic!("unknown adversary {a} (none|all|random)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let a = Args::default();
        assert_eq!(a.granularity, dss_pmem::FlushGranularity::Line);
        assert_eq!(a.writeback_adversary(), dss_pmem::WritebackAdversary::None);
        assert!(!a.coalesce && !a.per_address && !a.backoff, "perf features default off");
        assert!(!a.partial_recovery, "partial-recovery mode defaults off");
        assert!(!a.multi_process, "multi-process mode defaults off");
        assert_eq!(a.layer, Layer::Cas, "the CAS-racing layer is the default");
        assert_eq!(a.mode, CheckMode::Partitioned, "full-length checking is the default");
        assert_eq!(a.max_ops, None);
    }

    #[test]
    fn switch_values_parse() {
        assert!(parse_switch("--coalesce", "on"));
        assert!(!parse_switch("--backoff", "off"));
    }

    #[test]
    #[should_panic(expected = "expected on|off")]
    fn bad_switch_panics() {
        parse_switch("--coalesce", "maybe");
    }

    #[test]
    #[should_panic(expected = "unknown granularity")]
    fn bad_granularity_panics() {
        dss_pmem::FlushGranularity::parse("nibble");
    }
}
