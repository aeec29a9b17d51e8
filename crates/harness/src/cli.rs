//! The one flag parser of every experiment binary and bench target.
//!
//! A program names itself and the flags it reads, those followed by a
//! value and the bare ones, and reads each value with its default before
//! it does any work. Any other argument panics (exit 101) with a message
//! naming the program, the argument and the program's flags: a flag the
//! program does not read, a misspelling, a valued flag with no value, a
//! malformed value. A repeated flag's last value wins, except `--backend`,
//! which repeats the run per backend. Bench targets declare the `--bench`
//! that `cargo bench` appends to a `harness = false` target's argv.

use std::fmt::Display;
use std::str::FromStr;

use dss_pmem::{FlushGranularity, WritebackAdversary};

use crate::adapter::Backend;
use crate::crashsim::Layer;

/// Which checking pipeline `check_histories` runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckMode {
    /// The classic bounded search ([`dss_checker::check`]).
    Monolithic,
    /// The segmented + fast-path pipeline
    /// ([`dss_checker::check_records`]), full-length histories.
    Partitioned,
}

/// A program's list of flag names.
type Names = &'static [&'static str];

/// One program's flags, as given on its argv. Every reader panics on a
/// malformed value, and on a flag the program did not declare.
#[derive(Debug)]
pub struct Flags {
    program: &'static str,
    valued: Names,
    bare: Names,
    /// The flags given, in argv order, with their values (empty for a
    /// bare flag).
    given: Vec<(&'static str, String)>,
}

impl Flags {
    /// Parses the process's argv for `program`, which reads the flags
    /// `valued`, each followed by its value, and `bare`; panics on any
    /// other argument.
    pub fn parse(program: &'static str, valued: Names, bare: Names) -> Flags {
        Flags::parse_from(program, valued, bare, std::env::args().skip(1).collect())
    }

    fn parse_from(program: &'static str, valued: Names, bare: Names, argv: Vec<String>) -> Flags {
        let mut flags = Flags { program, valued, bare, given: Vec::new() };
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            if let Some(&flag) = bare.iter().find(|&&f| f == arg) {
                flags.given.push((flag, String::new()));
            } else if let Some(&flag) = valued.iter().find(|&&f| f == arg) {
                let value = argv.next().unwrap_or_else(|| flags.refuse(flag, "needs a value"));
                flags.given.push((flag, value));
            } else {
                flags.refuse(&arg, "not a flag of this program");
            }
        }
        flags
    }

    /// The value of `flag`, or `default` when it is absent.
    pub fn value<T: FromStr<Err: Display>>(&self, flag: &str, default: T) -> T {
        self.read(flag, default, |v| {
            v.parse().map_err(|e| format!("expected {} ({e})", std::any::type_name::<T>()))
        })
    }

    /// The `on|off` switch `flag`; off when absent.
    pub fn on(&self, flag: &str) -> bool {
        self.read(flag, false, |v| match v {
            "on" => Ok(true),
            "off" => Ok(false),
            _ => Err("expected on|off".into()),
        })
    }

    /// Whether the bare `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.declared(flag, self.bare);
        self.given.iter().any(|(f, _)| *f == flag)
    }

    /// Every `--backend pmem|dram`, in flag order; pmem alone when absent.
    pub fn backends(&self) -> Vec<Backend> {
        self.declared("--backend", self.valued);
        let given = self.given.iter().filter(|(f, _)| *f == "--backend");
        let backends: Vec<_> = given.map(|(f, v)| self.parsed(f, v, Backend::parse)).collect();
        if backends.is_empty() {
            vec![Backend::Pmem]
        } else {
            backends
        }
    }

    /// `--granularity line|word`; line when absent.
    pub fn granularity(&self) -> FlushGranularity {
        self.read("--granularity", FlushGranularity::Line, FlushGranularity::parse)
    }

    /// `--adversary none|all|random`; none when absent. `random` draws its
    /// schedule from `seed`.
    pub fn adversary(&self, seed: u64) -> WritebackAdversary {
        self.read("--adversary", WritebackAdversary::None, |v| match v {
            "none" => Ok(WritebackAdversary::None),
            "all" => Ok(WritebackAdversary::All),
            "random" => Ok(WritebackAdversary::Random { seed, prob: 0.5 }),
            _ => Err("expected none|all|random".into()),
        })
    }

    /// `--layer cas|replicated|map`; cas when absent.
    pub fn layer(&self) -> Layer {
        self.read("--layer", Layer::Cas, Layer::parse)
    }

    /// `--mode monolithic|partitioned`; partitioned when absent.
    pub fn mode(&self) -> CheckMode {
        self.read("--mode", CheckMode::Partitioned, |v| match v {
            "monolithic" => Ok(CheckMode::Monolithic),
            "partitioned" => Ok(CheckMode::Partitioned),
            _ => Err("expected monolithic|partitioned".into()),
        })
    }

    /// The last value of the valued `flag` through `parse`, or `default`.
    fn read<T>(&self, flag: &str, default: T, parse: impl FnOnce(&str) -> Result<T, String>) -> T {
        self.declared(flag, self.valued);
        match self.given.iter().rev().find(|(f, _)| *f == flag) {
            Some((_, v)) => self.parsed(flag, v, parse),
            None => default,
        }
    }

    fn parsed<T>(&self, flag: &str, v: &str, parse: impl FnOnce(&str) -> Result<T, String>) -> T {
        parse(v).unwrap_or_else(|why| self.refuse(&format!("{flag} {v}"), &why))
    }

    /// Reading a flag the program did not declare would always yield the
    /// default: that is a bug in the program, not in its argv.
    fn declared(&self, flag: &str, list: Names) {
        assert!(list.contains(&flag), "{} reads {flag} without declaring it", self.program);
    }

    fn refuse(&self, arg: &str, why: &str) -> ! {
        let mut known: Vec<String> = self.valued.iter().map(|f| format!("{f} <value>")).collect();
        known.extend(self.bare.iter().map(|f| f.to_string()));
        let known = if known.is_empty() { "no flags".into() } else { known.join(" ") };
        panic!("{}: refused {arg}: {why}; {} reads {known}", self.program, self.program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every flag of every experiment binary.
    const ALL: &[&str] = &[
        "--threads",
        "--ms",
        "--repeats",
        "--penalty",
        "--granularity",
        "--adversary",
        "--seed",
        "--backend",
        "--coalesce",
        "--per-address",
        "--backoff",
        "--partial-recovery",
        "--multi-process",
        "--layer",
        "--mode",
        "--max-ops",
    ];

    /// Parses the whitespace-separated `argv` as the program `prog`.
    fn parse(valued: Names, bare: Names, argv: &str) -> Flags {
        Flags::parse_from("prog", valued, bare, argv.split_whitespace().map(String::from).collect())
    }

    #[test]
    fn defaults_are_sane() {
        let f = parse(ALL, &[], "");
        assert_eq!(f.granularity(), FlushGranularity::Line);
        assert_eq!(f.adversary(1), WritebackAdversary::None);
        assert_eq!(f.backends(), [Backend::Pmem], "pmem-only when no --backend is given");
        for switch in ["--coalesce", "--per-address", "--backoff"] {
            assert!(!f.on(switch), "perf features default off");
        }
        assert!(!f.on("--partial-recovery"), "partial-recovery mode defaults off");
        assert!(!f.on("--multi-process"), "multi-process mode defaults off");
        assert_eq!(f.layer(), Layer::Cas, "the CAS-racing layer is the default");
        assert_eq!(f.mode(), CheckMode::Partitioned, "full-length checking is the default");
        assert_eq!(f.value("--max-ops", 512usize), 512);
    }

    #[test]
    fn values_parse() {
        let argv = "--coalesce on --backoff off --granularity word --adversary random \
                    --layer map --mode monolithic --ms 30";
        let f = parse(ALL, &[], argv);
        assert!(f.on("--coalesce"));
        assert!(!f.on("--backoff"));
        assert_eq!(f.granularity(), FlushGranularity::Word);
        assert_eq!(f.adversary(7), WritebackAdversary::Random { seed: 7, prob: 0.5 });
        assert_eq!(f.layer(), Layer::Map);
        assert_eq!(f.mode(), CheckMode::Monolithic);
        assert_eq!(f.value("--ms", 200u64), 30);
    }

    #[test]
    fn last_scalar_wins_and_backends_repeat() {
        let f = parse(ALL, &[], "--ms 1 --backend dram --ms 2 --backend pmem");
        assert_eq!(f.value("--ms", 200u64), 2);
        assert_eq!(f.backends(), [Backend::Dram, Backend::Pmem]);
    }

    #[test]
    #[should_panic(expected = "prog: refused --per-address: not a flag of this program; \
                               prog reads --threads <value> --coalesce <value>")]
    fn undeclared_flag_is_refused() {
        parse(&["--threads", "--coalesce"], &[], "--per-address on");
    }

    #[test]
    #[should_panic(expected = "refused --thread: not a flag of this program")]
    fn misspelling_is_refused() {
        parse(&["--threads"], &[], "--thread 2");
    }

    #[test]
    #[should_panic(expected = "refused --ms: needs a value")]
    fn valued_flag_at_the_end_is_refused() {
        parse(&["--threads", "--ms"], &[], "--threads 2 --ms");
    }

    #[test]
    #[should_panic(expected = "refused --threads two: expected usize")]
    fn malformed_number_is_refused() {
        parse(&["--threads"], &[], "--threads two").value("--threads", 8usize);
    }

    #[test]
    #[should_panic(expected = "refused --coalesce maybe: expected on|off")]
    fn bad_switch_is_refused() {
        parse(&["--coalesce"], &[], "--coalesce maybe").on("--coalesce");
    }

    #[test]
    #[should_panic(expected = "refused --granularity nibble: expected line|word")]
    fn bad_granularity_is_refused() {
        parse(&["--granularity"], &[], "--granularity nibble").granularity();
    }

    #[test]
    #[should_panic(expected = "refused --backend nvme: expected pmem|dram")]
    fn bad_backend_is_refused() {
        parse(&["--backend"], &[], "--backend pmem --backend nvme").backends();
    }

    #[test]
    fn bench_is_accepted_where_declared() {
        let f = parse(&["--threads"], &["--bench", "--assert-kv-mix"], "--threads 2 --bench");
        assert!(f.has("--bench"));
        assert!(!f.has("--assert-kv-mix"));
    }

    #[test]
    #[should_panic(
        expected = "prog: refused --bench: not a flag of this program; prog reads no flags"
    )]
    fn bench_is_refused_where_undeclared() {
        parse(&[], &[], "--bench");
    }

    #[test]
    #[should_panic(expected = "prog reads --seed without declaring it")]
    fn reading_an_undeclared_flag_panics() {
        parse(&["--threads"], &[], "").value("--seed", 1u64);
    }
}
