//! Workstealing policies and victim selection.
//!
//! The stealing algorithm has three decision points (paper Figure 2):
//! `construct_core_set` (which victims, in which order), `can_be_stolen` /
//! `choose_color_to_steal` (which color), and `construct_event_set` /
//! `migrate` (the mechanics). The *base* algorithm makes naïve choices at
//! all three; Section III introduces three complementary heuristics:
//!
//! - **locality-aware** — order victims by cache distance instead of by
//!   queue length;
//! - **time-left** — steal only *worthy* colors, whose pending processing
//!   time exceeds the (monitored) cost of performing the steal;
//! - **penalty-aware** — weight each event's contribution by the inverse
//!   of its handler's stealing penalty, so events with large long-lived
//!   data sets look unattractive.
//!
//! [`WsPolicy`] toggles each heuristic independently; the color-choice
//! rules themselves live on the queues
//! ([`crate::queue::LegacyQueue::choose_color_to_steal`],
//! [`crate::queue::MelyQueue::choose_worthy`]), and the executors drive
//! the full algorithm with the appropriate locking (real locks under
//! threads, a lock-contention cost model under simulation).

pub mod domains;

pub use domains::{StealDomains, StealPolicy, StealTier};

/// Which workstealing heuristics are active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WsPolicy {
    /// Master switch: disables stealing entirely when `false`.
    pub enabled: bool,
    /// Locality-aware victim order (Section III-A).
    pub locality: bool,
    /// Time-left worthiness filter (Section III-B).
    pub time_left: bool,
    /// Penalty-aware weighting (Section III-C).
    pub penalty: bool,
}

impl WsPolicy {
    /// No workstealing at all (the paper's "Libasync-smp" / "Mely"
    /// baselines without WS).
    pub const fn off() -> Self {
        WsPolicy {
            enabled: false,
            locality: false,
            time_left: false,
            penalty: false,
        }
    }

    /// The base workstealing algorithm of Libasync-smp (Figure 2), no
    /// heuristics.
    pub const fn base() -> Self {
        WsPolicy {
            enabled: true,
            locality: false,
            time_left: false,
            penalty: false,
        }
    }

    /// Mely's improved workstealing: all three heuristics enabled (the
    /// "Mely - WS" configuration of the evaluation).
    pub const fn improved() -> Self {
        WsPolicy {
            enabled: true,
            locality: true,
            time_left: true,
            penalty: true,
        }
    }

    /// Toggles the locality-aware heuristic.
    pub const fn with_locality(mut self, on: bool) -> Self {
        self.locality = on;
        self
    }

    /// Toggles the time-left heuristic.
    pub const fn with_time_left(mut self, on: bool) -> Self {
        self.time_left = on;
        self
    }

    /// Toggles the penalty-aware heuristic.
    pub const fn with_penalty(mut self, on: bool) -> Self {
        self.penalty = on;
        self
    }
}

impl std::fmt::Display for WsPolicy {
    /// Short human-readable label (used by reports and benches):
    /// `no-WS`, `WS+base`, or `WS` plus the active heuristics
    /// (`WS+loc+time+pen` for the fully improved policy).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if !self.enabled {
            return f.write_str("no-WS");
        }
        f.write_str("WS")?;
        let mut any = false;
        if self.locality {
            f.write_str("+loc")?;
            any = true;
        }
        if self.time_left {
            f.write_str("+time")?;
            any = true;
        }
        if self.penalty {
            f.write_str("+pen")?;
            any = true;
        }
        if !any {
            f.write_str("+base")?;
        }
        Ok(())
    }
}

impl Default for WsPolicy {
    fn default() -> Self {
        WsPolicy::off()
    }
}

/// The paper's `construct_core_set` (Figure 2 / Section II-B), written
/// into `out`: victims start at the core with the most queued events,
/// followed by the successive cores in id order, wrapping around; the
/// thief itself is excluded. With an empty machine the set is empty.
///
/// `loads` are whatever pending-work estimate the executor maintains;
/// the threaded executor reports each core's queue length *plus* its
/// injection-inbox backlog, so externally injected work attracts thieves
/// even before the owning core has drained it into its queue.
pub(crate) fn construct_core_set_base(thief: usize, loads: &[usize], out: &mut Vec<usize>) {
    let n = loads.len();
    if n <= 1 {
        return;
    }
    let busiest = loads
        .iter()
        .enumerate()
        .max_by_key(|&(i, &l)| (l, std::cmp::Reverse(i)))
        .map(|(i, _)| i)
        .unwrap_or(0);
    out.extend((0..n).map(|k| (busiest + k) % n).filter(|&c| c != thief));
}

#[cfg(test)]
mod tests {
    use mely_topology::MachineModel;

    use super::*;

    #[test]
    fn policy_presets() {
        assert!(!WsPolicy::off().enabled);
        let b = WsPolicy::base();
        assert!(b.enabled && !b.locality && !b.time_left && !b.penalty);
        let i = WsPolicy::improved();
        assert!(i.enabled && i.locality && i.time_left && i.penalty);
    }

    #[test]
    fn policy_labels() {
        assert_eq!(WsPolicy::off().to_string(), "no-WS");
        assert_eq!(WsPolicy::base().to_string(), "WS+base");
        assert_eq!(WsPolicy::improved().to_string(), "WS+loc+time+pen");
        assert_eq!(WsPolicy::base().with_time_left(true).to_string(), "WS+time");
    }

    fn base(thief: usize, loads: &[usize]) -> Vec<usize> {
        let mut out = Vec::new();
        construct_core_set_base(thief, loads, &mut out);
        out
    }

    #[test]
    fn base_core_set_matches_paper_example() {
        // Paper: on an 8-core machine, if core 6 has the most events, the
        // set is {6, 7, 0, 1, 2, 3, 4, 5} (minus the thief).
        let mut loads = vec![0; 8];
        loads[6] = 100;
        assert_eq!(base(3, &loads), vec![6, 7, 0, 1, 2, 4, 5]);
    }

    #[test]
    fn base_core_set_excludes_thief_even_when_busiest() {
        let mut loads = vec![0; 4];
        loads[2] = 9;
        assert_eq!(base(2, &loads), vec![3, 0, 1]);
    }

    #[test]
    fn base_core_set_ties_break_to_lowest_id() {
        let loads = vec![5, 5, 5];
        assert_eq!(base(1, &loads), vec![0, 2]);
    }

    #[test]
    fn base_core_set_trivial_machines() {
        assert!(base(0, &[3]).is_empty());
        assert!(base(0, &[]).is_empty());
    }

    #[test]
    fn locality_core_set_uses_topology() {
        let m = MachineModel::xeon_e5410();
        let d = StealDomains::new(&m, 8);
        let loads = vec![0; 8];
        let victims = |ws: WsPolicy| {
            let mut out = Vec::new();
            StealPolicy::Flat.victims(2, &loads, ws, &d, &mut out);
            out
        };
        assert_eq!(victims(WsPolicy::improved())[0], 3, "L2 partner first");
        assert_eq!(
            victims(WsPolicy::base())[0],
            0,
            "base order starts at the busiest (here: tie, core 0)"
        );
    }
}
