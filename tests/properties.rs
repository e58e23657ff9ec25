//! Property-based tests (proptest) on the core data structures and the
//! runtime's scheduling invariants.

use proptest::prelude::*;

use mely_repro::core::color::Color;
use mely_repro::core::event::Event;
use mely_repro::core::prelude::*;
use mely_repro::core::queue::{LegacyQueue, MelyQueue};
use mely_repro::crypto::{self, Mac, SessionKey, StreamCipher};
use mely_repro::http::{parse_request, ParseOutcome};

/// Random queue operations for the structural invariants.
#[derive(Debug, Clone)]
enum Op {
    Push { color: u16, cost: u64, penalty: u32 },
    Pop { threshold: u32 },
    Detach { pick: usize },
    SetEstimate { est: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u16..24, 0u64..50_000, 1u32..2_000).prop_map(|(color, cost, penalty)| Op::Push {
            color,
            cost,
            penalty
        }),
        (1u32..12).prop_map(|threshold| Op::Pop { threshold }),
        (0usize..32).prop_map(|pick| Op::Detach { pick }),
        (0u64..100_000).prop_map(|est| Op::SetEstimate { est }),
    ]
}

/// Random operations over a *pair* of pooled queues, modelling two
/// cores with steals migrating whole color-queues between them.
#[derive(Debug, Clone)]
enum PairOp {
    Push { color: u16, penalty: u32 },
    Pop { on_b: bool, threshold: u32 },
    Steal { a_to_b: bool },
    SetEstimate { est: u64 },
}

fn pair_op_strategy() -> impl Strategy<Value = PairOp> {
    prop_oneof![
        (0u16..12, 1u32..100).prop_map(|(color, penalty)| PairOp::Push { color, penalty }),
        (any::<bool>(), 1u32..8).prop_map(|(on_b, threshold)| PairOp::Pop { on_b, threshold }),
        any::<bool>().prop_map(|a_to_b| PairOp::Steal { a_to_b }),
        (0u64..10_000).prop_map(|est| PairOp::SetEstimate { est }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// MelyQueue never loses or duplicates events, keeps its cumulative
    /// accounting exact, and its internal lists/buckets consistent,
    /// under arbitrary interleavings of push/pop/detach/re-estimate.
    #[test]
    fn mely_queue_invariants_hold_under_random_ops(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut q = MelyQueue::new(true);
        let mut pushed: u64 = 0;
        let mut removed: u64 = 0;
        for op in ops {
            match op {
                Op::Push { color, cost, penalty } => {
                    q.push(Event::new(Color::new(color), cost).with_penalty(penalty));
                    pushed += 1;
                }
                Op::Pop { threshold } => {
                    if q.pop(threshold).is_some() {
                        removed += 1;
                    }
                }
                Op::Detach { pick } => {
                    if q.distinct_colors() > 0 {
                        let colors = q.colors_in_order();
                        let (color, _) = colors[pick % colors.len()];
                        if let Some((slot, _)) = q
                            .choose_scan(None)
                            .filter(|&(s, _)| q.slot_color(s) == color)
                        {
                            removed += q.detach(slot).len() as u64;
                        } else if let Some(slot) = q.choose_worthy(None) {
                            removed += q.detach(slot).len() as u64;
                        }
                    }
                }
                Op::SetEstimate { est } => q.set_steal_cost_estimate(est),
            }
            q.assert_invariants();
        }
        prop_assert_eq!(pushed - removed, q.len() as u64);
    }

    /// The pooled-buffer queue pair under randomized push/pop/detach/
    /// absorb: invariants always hold, and recycled buffers never leak
    /// events across colors — every popped event is checked against a
    /// per-color FIFO model keyed by a unique id, on whichever queue
    /// currently owns the color, so a stale event surviving in a reused
    /// buffer (wrong color, wrong order, or duplicated) is caught
    /// immediately.
    #[test]
    fn pooled_queues_never_leak_events_across_colors(
        ops in prop::collection::vec(pair_op_strategy(), 1..300),
    ) {
        // Tiny initial capacity: regrow and pool warm-up paths both run.
        let mut qa = MelyQueue::with_capacity(true, 4);
        let mut qb = MelyQueue::with_capacity(true, 4);
        // Per-color FIFO of unique ids (encoded in the cost); colors
        // live on exactly one queue at a time, `on_b` tracking which.
        let mut model: std::collections::HashMap<u16, std::collections::VecDeque<u64>> =
            Default::default();
        let mut on_b: std::collections::HashMap<u16, bool> = Default::default();
        let mut next_id: u64 = 1;
        for op in ops {
            match op {
                PairOp::Push { color, penalty } => {
                    let owner = *on_b.entry(color).or_insert(color % 2 == 0);
                    let q = if owner { &mut qb } else { &mut qa };
                    q.push(Event::new(Color::new(color), next_id).with_penalty(penalty));
                    model.entry(color).or_default().push_back(next_id);
                    next_id += 1;
                }
                PairOp::Pop { on_b: pop_b, threshold } => {
                    let q = if pop_b { &mut qb } else { &mut qa };
                    if let Some(ev) = q.pop(threshold) {
                        let c = ev.color().value();
                        prop_assert_eq!(on_b.get(&c).copied(), Some(pop_b));
                        let expected = model
                            .get_mut(&c)
                            .and_then(std::collections::VecDeque::pop_front);
                        prop_assert_eq!(expected, Some(ev.cost()));
                    }
                }
                PairOp::Steal { a_to_b } => {
                    let (victim, thief) = if a_to_b {
                        (&mut qa, &mut qb)
                    } else {
                        (&mut qb, &mut qa)
                    };
                    let slot = victim
                        .choose_scan(None)
                        .map(|(s, _)| s)
                        .or_else(|| victim.choose_worthy(None));
                    if let Some(slot) = slot {
                        let d = victim.detach(slot);
                        on_b.insert(d.color().value(), a_to_b);
                        thief.absorb(d);
                    }
                }
                PairOp::SetEstimate { est } => {
                    qa.set_steal_cost_estimate(est);
                    qb.set_steal_cost_estimate(est);
                }
            }
            qa.assert_invariants();
            qb.assert_invariants();
        }
        // Drain everything; the model must be consumed exactly.
        for (q, is_b) in [(&mut qa, false), (&mut qb, true)] {
            while let Some(ev) = q.pop(3) {
                let c = ev.color().value();
                prop_assert_eq!(on_b.get(&c).copied(), Some(is_b));
                let expected = model
                    .get_mut(&c)
                    .and_then(std::collections::VecDeque::pop_front);
                prop_assert_eq!(expected, Some(ev.cost()));
            }
        }
        prop_assert!(model.values().all(std::collections::VecDeque::is_empty),
            "events lost in a recycled buffer");
    }

    /// Per-color FIFO: whatever the pop interleaving, events of one
    /// color leave a MelyQueue in registration order.
    #[test]
    fn mely_queue_preserves_per_color_fifo(
        colors in prop::collection::vec(0u16..6, 1..120),
        threshold in 1u32..8,
    ) {
        let mut q = MelyQueue::new(false);
        for (seq, &c) in colors.iter().enumerate() {
            let mut ev = Event::new(Color::new(c), 10);
            ev = ev.with_cost(seq as u64 + 1); // encode seq in the cost
            q.push(ev);
        }
        let mut last_seen: std::collections::HashMap<u16, u64> = Default::default();
        while let Some(ev) = q.pop(threshold) {
            let prev = last_seen.entry(ev.color().value()).or_insert(0);
            prop_assert!(ev.cost() > *prev, "per-color FIFO violated");
            *prev = ev.cost();
        }
    }

    /// LegacyQueue extraction preserves both the extracted color's order
    /// and the relative order of everything left behind.
    #[test]
    fn legacy_extract_preserves_orders(
        colors in prop::collection::vec(0u16..5, 1..80),
        target in 0u16..5,
    ) {
        let mut q = LegacyQueue::new();
        for (seq, &c) in colors.iter().enumerate() {
            q.push(Event::new(Color::new(c), seq as u64 + 1));
        }
        let (set, _) = q.extract_color(Color::new(target));
        let mut prev = 0;
        for ev in &set {
            prop_assert_eq!(ev.color(), Color::new(target));
            prop_assert!(ev.cost() > prev);
            prev = ev.cost();
        }
        let mut prev = 0;
        for ev in q.iter() {
            prop_assert_ne!(ev.color(), Color::new(target));
            prop_assert!(ev.cost() > prev);
            prev = ev.cost();
        }
    }

    /// The simulator loses no events and serializes every color, for any
    /// color/cost mix and any policy.
    #[test]
    fn sim_executes_everything_exactly_once(
        events in prop::collection::vec((0u16..16, 0u64..30_000), 1..150),
        policy_bits in 0u8..8,
        flavor_mely in any::<bool>(),
    ) {
        let ws = WsPolicy::base()
            .with_locality(policy_bits & 1 != 0)
            .with_time_left(policy_bits & 2 != 0)
            .with_penalty(policy_bits & 4 != 0);
        let mut rt = RuntimeBuilder::new()
            .cores(4)
            .flavor(if flavor_mely { Flavor::Mely } else { Flavor::Libasync })
            .workstealing(ws)
            .build(ExecKind::Sim);
        let n = events.len() as u64;
        for (color, cost) in events {
            rt.register_pinned(Event::new(Color::new(color), cost), 0);
        }
        let report = rt.run();
        prop_assert_eq!(report.events_processed(), n);
        // Conservation: processed everywhere equals registered anywhere.
        let t = report.total();
        prop_assert_eq!(t.events_processed, t.registered);
    }

    /// Stream cipher round-trips arbitrary data at arbitrary chunkings.
    #[test]
    fn cipher_roundtrip_any_split(
        data in prop::collection::vec(any::<u8>(), 0..800),
        seed in any::<u64>(),
        nonce in any::<u64>(),
        split in 0usize..800,
    ) {
        let key = SessionKey::from_seed(seed);
        let mut whole = data.clone();
        StreamCipher::new(&key, nonce).apply(&mut whole);
        let mut parts = data.clone();
        let split = split.min(parts.len());
        let c = StreamCipher::new(&key, nonce);
        let (a, b) = parts.split_at_mut(split);
        c.apply_at(a, 0);
        c.apply_at(b, split as u64);
        prop_assert_eq!(&whole, &parts);
        StreamCipher::new(&key, nonce).apply(&mut whole);
        prop_assert_eq!(whole, data);
    }

    /// The MAC is deterministic and sensitive to single-bit flips.
    #[test]
    fn mac_detects_any_single_bitflip(
        data in prop::collection::vec(any::<u8>(), 1..300),
        seed in any::<u64>(),
        bit in any::<u16>(),
    ) {
        let key = SessionKey::from_seed(seed);
        let tag = Mac::new(&key).compute(&data);
        prop_assert_eq!(tag, Mac::new(&key).compute(&data));
        let mut tampered = data.clone();
        let idx = (bit as usize / 8) % tampered.len();
        tampered[idx] ^= 1 << (bit % 8);
        prop_assert_ne!(tag, Mac::new(&key).compute(&tampered));
    }

    /// The one-pass `seal`/`open` return what the two-pass cipher + MAC
    /// return: the same ciphertext and tag, and on the way back the same
    /// verdict and the same decrypted buffer — also after one flipped
    /// ciphertext byte or a flipped tag.
    #[test]
    fn seal_and_open_match_the_two_pass_path(
        data in prop::collection::vec(any::<u8>(), 0..2048),
        seed in any::<u64>(),
        nonce in any::<u64>(),
        tamper in 0u8..3,
        at in any::<u16>(),
    ) {
        let key = SessionKey::from_seed(seed);
        let mut sealed = data.clone();
        let mut tag = crypto::seal(&key, nonce, &mut sealed);
        let mut two_pass = data.clone();
        StreamCipher::new(&key, nonce).apply(&mut two_pass);
        prop_assert_eq!(&sealed, &two_pass);
        prop_assert_eq!(tag, Mac::new(&key).compute(&two_pass));

        match tamper {
            1 if !sealed.is_empty() => {
                let i = at as usize % sealed.len();
                sealed[i] ^= 0x80;
                two_pass[i] ^= 0x80;
            }
            0 => {}
            _ => tag ^= 1 << (at % 64),
        }
        let expected = Mac::new(&key).verify(&two_pass, tag);
        StreamCipher::new(&key, nonce).apply(&mut two_pass);
        prop_assert_eq!(crypto::open(&key, nonce, &mut sealed, tag), expected);
        prop_assert_eq!(expected, tamper == 0);
        prop_assert_eq!(sealed, two_pass);
    }

    /// The HTTP parser never panics and never over-consumes.
    #[test]
    fn http_parser_total_on_arbitrary_bytes(data in prop::collection::vec(any::<u8>(), 0..400)) {
        match parse_request(&data) {
            ParseOutcome::Complete(req, n) => {
                prop_assert!(n <= data.len());
                prop_assert!(!req.path.is_empty());
            }
            ParseOutcome::Partial | ParseOutcome::Bad(_) => {}
        }
    }

    /// Cache simulator sanity: a second identical sweep never misses
    /// more than the first, and latency is monotone in length.
    #[test]
    fn cachesim_sweeps_are_monotone(len in 64u64..8_192) {
        use mely_repro::cachesim::Hierarchy;
        use mely_repro::topology::MachineModel;
        let mut h = Hierarchy::new(&MachineModel::xeon_e5410());
        let (lat1, miss1) = h.sweep(0, 0, len, 2);
        let (lat2, miss2) = h.sweep(0, 0, len, 2);
        prop_assert!(miss2 <= miss1);
        prop_assert!(lat2 <= lat1);
    }
}

// Shed-by-color admission properties, on the deterministic simulator:
// whatever the shed pattern, the events that *are* admitted keep their
// per-color FIFO order, mid-pipeline registrations are never shed, and
// the overload counters satisfy the offered-load accounting identity.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sim_shed_preserves_fifo_and_never_drops_mid_pipeline(
        colors in prop::collection::vec(0u16..4, 1..120),
        cap in 1u32..8,
    ) {
        use std::sync::{Arc, Mutex};

        let mut rt = RuntimeBuilder::new()
            .cores(2)
            .flavor(Flavor::Mely)
            .queue_limits(QueueLimits::default().per_color_events(cap))
            .build(ExecKind::Sim);
        // (color, injection index, is_followup) in execution order.
        let log: Arc<Mutex<Vec<(u16, usize, bool)>>> = Arc::new(Mutex::new(Vec::new()));
        let inj = rt.injector();
        for (i, c) in colors.iter().enumerate() {
            let cv = 1 + *c; // color 0 would serialize everything
            let seed_log = Arc::clone(&log);
            inj.inject(Event::new(Color::new(cv), 100).with_action(move |ctx| {
                seed_log.lock().unwrap().push((cv, i, false));
                let follow_log = Arc::clone(&seed_log);
                // ctx.register is a mid-pipeline registration: it must
                // bypass admission and can never be shed.
                ctx.register(Event::new(Color::new(cv), 50).with_action(move |_| {
                    follow_log.lock().unwrap().push((cv, i, true));
                }));
            }));
        }
        let report = rt.run();
        let log = log.lock().unwrap();

        // Every seed was injected before the run started, so per-color
        // occupancy only grows during injection: exactly the first
        // `cap` seeds of each color are admitted, the rest are shed.
        let mut expected_admitted = 0u64;
        for cv in 1..=4u16 {
            let offered = colors.iter().filter(|&&c| 1 + c == cv).count() as u64;
            let admitted = log.iter().filter(|(c, _, f)| *c == cv && !*f).count() as u64;
            prop_assert_eq!(admitted, offered.min(u64::from(cap)));
            expected_admitted += admitted;

            // Per-color FIFO: admitted seeds execute in injection order.
            let seq: Vec<usize> = log
                .iter()
                .filter(|(c, _, f)| *c == cv && !*f)
                .map(|(_, i, _)| *i)
                .collect();
            prop_assert!(seq.windows(2).all(|w| w[0] < w[1]), "color {} out of order: {:?}", cv, seq);
        }

        // Mid-pipeline followups are never shed: one per executed seed.
        let followups = log.iter().filter(|(_, _, f)| *f).count() as u64;
        prop_assert_eq!(followups, expected_admitted);
        prop_assert_eq!(report.events_processed(), 2 * expected_admitted);

        // Accounting identity: offered = admitted + shed, and with only
        // a per-color limit configured every shed is a color shed.
        let offered_total = colors.len() as u64;
        let t = report.total();
        prop_assert_eq!(t.shed_requests, offered_total - expected_admitted);
        prop_assert_eq!(t.shed_by_color, t.shed_requests);
        prop_assert_eq!(t.admission_rejects, t.shed_requests);
    }
}

// The same invariants on the real threaded executor, where shed
// decisions race actual execution: color exclusion holds for whatever
// is admitted, mid-pipeline registrations always run, and the counters
// balance — on every interleaving the scheduler happens to produce.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn threaded_shed_keeps_exclusion_and_accounting(
        colors in prop::collection::vec(0u16..3, 1..60),
        cap in 1u32..4,
    ) {
        use std::sync::Arc;
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

        let mut rt = RuntimeBuilder::new()
            .cores(2)
            .flavor(Flavor::Mely)
            .queue_limits(QueueLimits::default().per_color_events(cap))
            .build(ExecKind::Threaded);
        let keepalive = rt.injector().keepalive();
        let handle = rt.injector();
        let stopper = rt.injector();
        let seeds = Arc::new(AtomicU64::new(0));
        let followups = Arc::new(AtomicU64::new(0));
        let violations = Arc::new(AtomicU64::new(0));
        let in_crit: Arc<Vec<AtomicBool>> =
            Arc::new((0..4).map(|_| AtomicBool::new(false)).collect());

        let offered = colors.len() as u64;
        let runner = std::thread::spawn(move || rt.run());
        for c in &colors {
            let cv = 1 + *c;
            let seeds = Arc::clone(&seeds);
            let followups = Arc::clone(&followups);
            let violations = Arc::clone(&violations);
            let in_crit = Arc::clone(&in_crit);
            handle.inject(Event::new(Color::new(cv), 200).with_action(move |ctx| {
                // Color exclusion: no two events of one color run
                // concurrently, shed pattern notwithstanding.
                if in_crit[cv as usize].swap(true, Ordering::AcqRel) {
                    violations.fetch_add(1, Ordering::Relaxed);
                }
                seeds.fetch_add(1, Ordering::Relaxed);
                std::hint::black_box(());
                in_crit[cv as usize].store(false, Ordering::Release);
                let followups = Arc::clone(&followups);
                ctx.register(Event::new(Color::new(cv), 50).with_action(move |_| {
                    followups.fetch_add(1, Ordering::Relaxed);
                }));
            }));
        }
        stopper.stop_when_idle();
        drop(keepalive);
        let report = runner.join().expect("runtime must not panic");

        prop_assert_eq!(violations.load(Ordering::Relaxed), 0);
        let executed = seeds.load(Ordering::Relaxed);
        // Mid-pipeline registrations are never shed.
        prop_assert_eq!(followups.load(Ordering::Relaxed), executed);
        // offered = executed + shed; only the per-color limit is set.
        let t = report.total();
        prop_assert_eq!(executed + t.shed_requests, offered);
        prop_assert_eq!(t.shed_by_color, t.shed_requests);
        prop_assert_eq!(report.events_processed(), 2 * executed);
    }
}
