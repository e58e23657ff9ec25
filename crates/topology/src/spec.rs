//! Compact topology specs: spoofed machine shapes for tests and CI.
//!
//! CI for this repo runs on small (often single-core) containers, yet
//! the steal-domain subsystem is only interesting on multi-socket,
//! multi-tier machines. [`MachineModel::from_spec`] builds a synthetic
//! but fully consistent model from a one-line spec such as
//! `2s×4c×2t/l2=2/llc=8`, and [`MachineModel::from_env`] reads the same
//! grammar from the `MELY_TOPOLOGY` environment variable so a CI job
//! can sweep shapes without recompiling.
//!
//! # Grammar
//!
//! ```text
//! spec     := shape ("/" field)*
//! shape    := <N>"s" SEP <N>"c" SEP <N>"t"     e.g. 2s×4c×2t
//! SEP      := "×" | "x" | "*"
//! field    := "l2=" <N>    logical CPUs sharing one L2 instance
//!           | "llc=" <N>   logical CPUs sharing one last-level cache
//!           | "mem=" <N>   memory latency in cycles (default 110)
//!           | "freq=" <N>  nominal frequency in Hz (default 2.33 GHz)
//! ```
//!
//! The shape is `sockets × physical cores per socket × SMT threads per
//! core`; the `s` and `t` parts may be omitted (default 1). Logical
//! CPUs are numbered socket-major, so consecutive ids are SMT siblings,
//! then L2/LLC groups, then sockets. L1 is always private to a physical
//! core (shared by its SMT threads); `l2`/`llc` levels are added only
//! when requested and must nest: each grouping must be a multiple of
//! the previous one and must not span sockets.

use std::fmt;

use crate::{CacheLevel, MachineModel, ModelError};

/// Environment variable read by [`MachineModel::from_env`].
pub const TOPOLOGY_ENV: &str = "MELY_TOPOLOGY";

/// Error returned by [`MachineModel::from_spec`] when a spec string
/// does not follow the grammar or describes an inconsistent machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The spec string is empty.
    Empty,
    /// The leading `NsxNcxNt` shape could not be parsed.
    BadShape(String),
    /// A `key=value` field is unknown or has a bad value.
    BadField(String),
    /// A cache grouping does not nest inside the socket layout.
    BadNesting(String),
    /// The assembled model failed [`MachineModel::new`] validation.
    Invalid(ModelError),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Empty => write!(f, "empty topology spec"),
            SpecError::BadShape(s) => {
                write!(f, "bad topology shape {s:?} (expected e.g. 2s×4c×2t)")
            }
            SpecError::BadField(s) => write!(f, "bad topology field {s:?}"),
            SpecError::BadNesting(s) => write!(f, "cache grouping does not nest: {s}"),
            SpecError::Invalid(e) => write!(f, "inconsistent topology spec: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<ModelError> for SpecError {
    fn from(e: ModelError) -> Self {
        SpecError::Invalid(e)
    }
}

/// The parsed shape plus optional cache/memory fields.
struct Parsed {
    sockets: usize,
    cores_per_socket: usize,
    threads: usize,
    l2: Option<usize>,
    llc: Option<usize>,
    mem: u64,
    freq: u64,
}

fn parse_count(part: &str, suffix: char) -> Option<usize> {
    let digits = part.strip_suffix(suffix)?;
    digits.parse().ok().filter(|&n| n > 0)
}

fn parse_shape(shape: &str) -> Result<(usize, usize, usize), SpecError> {
    let bad = || SpecError::BadShape(shape.to_string());
    let (mut s, mut c, mut t) = (None, None, None);
    for part in shape.split(['×', 'x', '*']) {
        let part = part.trim();
        if let Some(n) = parse_count(part, 's') {
            if s.replace(n).is_some() {
                return Err(bad());
            }
        } else if let Some(n) = parse_count(part, 'c') {
            if c.replace(n).is_some() {
                return Err(bad());
            }
        } else if let Some(n) = parse_count(part, 't') {
            if t.replace(n).is_some() {
                return Err(bad());
            }
        } else {
            return Err(bad());
        }
    }
    Ok((s.unwrap_or(1), c.ok_or_else(bad)?, t.unwrap_or(1)))
}

fn parse(spec: &str) -> Result<Parsed, SpecError> {
    let spec = spec.trim();
    if spec.is_empty() {
        return Err(SpecError::Empty);
    }
    let mut parts = spec.split('/');
    let shape = parts.next().ok_or(SpecError::Empty)?;
    let (sockets, cores_per_socket, threads) = parse_shape(shape)?;
    let mut p = Parsed {
        sockets,
        cores_per_socket,
        threads,
        l2: None,
        llc: None,
        mem: 110,
        freq: 2_330_000_000,
    };
    for field in parts {
        let bad = || SpecError::BadField(field.to_string());
        let (key, value) = field.split_once('=').ok_or_else(bad)?;
        let value: u64 = value.trim().parse().map_err(|_| bad())?;
        if value == 0 {
            return Err(bad());
        }
        match key.trim() {
            "l2" => p.l2 = Some(value as usize),
            "llc" => p.llc = Some(value as usize),
            "mem" => p.mem = value,
            "freq" => p.freq = value,
            _ => return Err(bad()),
        }
    }
    Ok(p)
}

/// One synthetic cache level; latencies follow the presets
/// (L1 = 4 cycles, L2 = 15, LLC = 40).
fn level(level: u8, size_bytes: u64, latency_cycles: u64, cores: usize) -> CacheLevel {
    CacheLevel {
        level,
        size_bytes,
        line_bytes: 64,
        associativity: 16,
        latency_cycles,
        cores_per_instance: cores,
    }
}

impl MachineModel {
    /// Builds a synthetic machine from a compact topology spec such as
    /// `2s×4c×2t/l2=2/llc=8` (grammar:
    /// `<N>s×<N>c×<N>t[/l2=K][/llc=K][/mem=N][/freq=N]`, with `×` or
    /// `x` accepted). The resulting model has consistent SMT, cache and
    /// socket groupings, so steal domains, the cache simulator and the
    /// sim executor all agree on the shape — this is how dual-socket
    /// behavior is exercised on a single-core CI container.
    ///
    /// ```
    /// use mely_topology::MachineModel;
    ///
    /// let m = MachineModel::from_spec("2s×4c×2t/l2=2/llc=8").unwrap();
    /// assert_eq!(m.num_cores(), 16);
    /// assert_eq!(m.num_sockets(), 2);
    /// assert_eq!(m.smt_per_core(), 2);
    /// // SMT siblings share L1; cross-socket pairs share nothing.
    /// assert!(m.distance(0, 1) < m.distance(0, 8));
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] when the string does not follow the
    /// grammar or the cache groupings do not nest within the sockets.
    pub fn from_spec(spec: &str) -> Result<Self, SpecError> {
        let p = parse(spec)?;
        let units = p.sockets * p.cores_per_socket * p.threads;
        let per_socket = p.cores_per_socket * p.threads;
        let mut levels = vec![level(1, 32 * 1024, 4, p.threads)];
        let mut prev = p.threads;
        for (name, group, lvl, size, lat) in [
            ("l2", p.l2, 2u8, 1024 * 1024, 15u64),
            ("llc", p.llc, 3u8, 8 * 1024 * 1024, 40u64),
        ] {
            let Some(g) = group else { continue };
            if g < prev || g % prev != 0 || per_socket % g != 0 {
                return Err(SpecError::BadNesting(format!(
                    "{name}={g} must be a multiple of {prev} and divide \
                     the {per_socket} logical CPUs of a socket"
                )));
            }
            if g > prev {
                levels.push(level(lvl, size, lat, g));
                prev = g;
            }
        }
        let canonical = {
            let mut s = format!("{}s×{}c×{}t", p.sockets, p.cores_per_socket, p.threads);
            if let Some(g) = p.l2 {
                s.push_str(&format!("/l2={g}"));
            }
            if let Some(g) = p.llc {
                s.push_str(&format!("/llc={g}"));
            }
            s
        };
        MachineModel::new(format!("spoofed {canonical}"), units, levels, p.mem, p.freq)?
            .with_smt_per_core(p.threads)
            .map_err(SpecError::from)?
            .with_sockets(p.sockets)
            .map_err(SpecError::from)
    }

    /// Builds a machine from the `MELY_TOPOLOGY` environment variable
    /// using the [`MachineModel::from_spec`] grammar. Returns
    /// `Ok(None)` when the variable is unset or empty — callers fall
    /// back to an explicit preset.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] when the variable is set but malformed;
    /// a spoofed topology that silently falls back would make a CI
    /// matrix meaningless.
    pub fn from_env() -> Result<Option<Self>, SpecError> {
        match std::env::var(TOPOLOGY_ENV) {
            Ok(v) if !v.trim().is_empty() => MachineModel::from_spec(&v).map(Some),
            _ => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dual_socket_example_from_the_issue() {
        let m = MachineModel::from_spec("2s×4c×2t/l2=2/llc=8").unwrap();
        assert_eq!(m.num_cores(), 16);
        assert_eq!(m.num_sockets(), 2);
        assert_eq!(m.smt_per_core(), 2);
        assert_eq!(m.cores_per_socket(), 8);
        assert_eq!(m.name(), "spoofed 2s×4c×2t/l2=2/llc=8");
        // l2=2 collapses into the L1 grouping (both cover one SMT
        // pair), so the distinct levels are L1 and the LLC.
        assert_eq!(m.levels().len(), 2);
        assert_eq!(m.levels()[1].level, 3);
        assert_eq!(m.levels()[1].cores_per_instance, 8);
        // SMT pair < same-LLC < cross-socket.
        assert!(m.distance(0, 1) < m.distance(0, 2));
        assert!(m.distance(0, 2) < m.distance(0, 8));
        assert_eq!(m.socket_of(7), 0);
        assert_eq!(m.socket_of(8), 1);
    }

    #[test]
    fn ascii_separators_and_defaults() {
        let a = MachineModel::from_spec("2s×4c×2t/llc=8").unwrap();
        let b = MachineModel::from_spec("2s x 4c x 2t / llc=8").unwrap();
        let c = MachineModel::from_spec("2s*4c*2t/llc=8").unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
        // Omitted sockets/threads default to 1.
        let flat = MachineModel::from_spec("8c").unwrap();
        assert_eq!(flat.num_cores(), 8);
        assert_eq!(flat.num_sockets(), 1);
        assert_eq!(flat.smt_per_core(), 1);
    }

    #[test]
    fn one_core_flat_shape() {
        let m = MachineModel::from_spec("1s×1c×1t").unwrap();
        assert_eq!(m.num_cores(), 1);
        assert_eq!(m.levels().len(), 1);
        assert_eq!(m.victims_by_distance(0), Vec::<usize>::new());
    }

    #[test]
    fn mem_and_freq_overrides() {
        let m = MachineModel::from_spec("4c/mem=200/freq=1000000000").unwrap();
        assert_eq!(m.mem_latency_cycles(), 200);
        assert_eq!(m.freq_hz(), 1_000_000_000);
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert_eq!(MachineModel::from_spec("  "), Err(SpecError::Empty));
        assert!(matches!(
            MachineModel::from_spec("fast"),
            Err(SpecError::BadShape(_))
        ));
        assert!(matches!(
            MachineModel::from_spec("2s×4c×2t/l9=4"),
            Err(SpecError::BadField(_))
        ));
        assert!(matches!(
            MachineModel::from_spec("2s×4c×2t/llc=0"),
            Err(SpecError::BadField(_))
        ));
        // llc=3 does not nest over 2-thread physical cores.
        assert!(matches!(
            MachineModel::from_spec("2s×4c×2t/llc=3"),
            Err(SpecError::BadNesting(_))
        ));
        // A cache must not span sockets.
        assert!(matches!(
            MachineModel::from_spec("2s×4c×2t/llc=16"),
            Err(SpecError::BadNesting(_))
        ));
        // Duplicate shape parts.
        assert!(matches!(
            MachineModel::from_spec("2s×2s×4c"),
            Err(SpecError::BadShape(_))
        ));
    }

    #[test]
    fn from_env_roundtrip() {
        // Serialized via a lock-free convention: tests in this module
        // are the only readers/writers of the variable name below.
        std::env::remove_var(TOPOLOGY_ENV);
        assert_eq!(MachineModel::from_env().unwrap(), None);
        std::env::set_var(TOPOLOGY_ENV, "2s×4c×2t/llc=8");
        let m = MachineModel::from_env().unwrap().unwrap();
        assert_eq!(m.num_cores(), 16);
        std::env::set_var(TOPOLOGY_ENV, "nonsense");
        assert!(MachineModel::from_env().is_err());
        std::env::remove_var(TOPOLOGY_ENV);
    }
}
