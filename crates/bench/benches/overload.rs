//! Open-loop overload: goodput and tail latency under bounded queues
//! with shed-by-color admission.
//!
//! The other benches are closed-loop — producers inject as fast as the
//! runtime absorbs, so offered load can never exceed capacity. This one
//! paces injection on the cycle clock at a *fixed* rate regardless of
//! acceptance (an open-loop client, the way real ingress traffic
//! behaves), with a heavy-tailed request mix: Zipf-skewed colors shared
//! by all producers (a few hot colors take most of the traffic) and
//! Pareto-distributed service costs.
//!
//! Three scenarios run against a runtime with bounded queues
//! ([`QueueLimits`]), whose `inject` sheds what the limits refuse:
//!
//! - `overload/goodput_{1x,2x,4x}` — completed requests per second at
//!   1×, 2× and 4× the nominal rate (80% of measured closed-loop
//!   capacity);
//! - `overload/p99_{1x,2x,4x}` — 99th-percentile end-to-end latency of
//!   the *admitted* requests, in cycles.
//!
//! The acceptance bars, which the bench checks itself (non-zero exit):
//! goodput at 4× stays ≥ [`MIN_GOODPUT_4X_OVER_1X`] × goodput at 1×
//! (shedding at the admission boundary keeps the runtime at capacity
//! instead of collapsing), and p99 at 4× stays ≤
//! [`MAX_P99_BOUNDED_OVER_UNBOUNDED`] × the p99 of the same 4× load on
//! an unbounded runtime (admitted events wait in queues whose depth the
//! limits cap — the limits, not luck, bound the tail). The second bar is
//! judged only after the unbounded control showed a backlog, its p99 at
//! least [`MIN_CONTROL_P99_OVER_1X`] × the 1× p99; when it did not, the
//! nominal interval is halved and everything measured again, at most
//! [`RECALIBRATIONS`] times.

use std::time::Instant;

use mely_core::cycles;
use mely_core::prelude::*;
use mely_loadgen::threaded::InjectorPool;
use rand::distributions::{Distribution, Pareto, Zipf};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Worker cores of the target runtime.
const CORES: usize = 4;
/// Open-loop producer threads (pacing is per producer).
const PRODUCERS: usize = 4;
/// Events per producer at the nominal (1x) rate; the kx scenario
/// injects k times as many over the same wall time.
const EVENTS_PER_PRODUCER: u64 = 24_000;
/// Tripwires, set under the locally measured 1.3-3.2 and over the
/// measured 0.008-0.125: shared runners are noisy, ratios are not
/// machine-specific.
const MIN_GOODPUT_4X_OVER_1X: f64 = 0.9;
const MAX_P99_BOUNDED_OVER_UNBOUNDED: f64 = 0.25;
/// The p99 bar only means something when the unbounded control actually
/// queued: its p99 must be at least this many times the bounded 1x p99.
/// The bounded 4x p99 measured 16-64x the 1x p99 (host scheduling, not
/// queueing), so a control under 256x can fail the 0.25 bar on noise
/// alone: at 128x it measured 0.5, at 512-8 192x 0.008-0.125. A host in
/// a slow phase during calibration picks a rate that 4x does not
/// overload; the bench then halves the interval and measures again, at
/// most [`RECALIBRATIONS`] times, before judging.
const MIN_CONTROL_P99_OVER_1X: f64 = 256.0;
const RECALIBRATIONS: usize = 2;
/// Colors in the shared hot set (Zipf rank 1 = color 1 is the hottest).
const COLORS: u64 = 64;
/// Pareto scale (minimum service cost) in cycles; mean with shape 1.5
/// is 3x the scale.
const COST_SCALE: u64 = 2_000;
/// Clamp for Pareto draws so one extreme sample cannot stall a core for
/// a whole scenario.
const COST_CAP: u64 = COST_SCALE * 200;
/// Queue limits sized so admitted events wait a bounded, modest time:
/// a full per-core queue of mean-cost events is well under a
/// millisecond of backlog.
const PER_COLOR: u32 = 32;
const PER_CORE: u32 = 128;
const INBOX: u32 = 256;

fn build(limits: QueueLimits) -> Runtime {
    RuntimeBuilder::new()
        .cores(CORES)
        .flavor(Flavor::Mely)
        .workstealing(WsPolicy::off())
        .queue_limits(limits)
        .build(ExecKind::Threaded)
}

/// The heavy-tailed request event for producer `p`'s `i`-th injection:
/// Zipf color from the shared hot set, Pareto cost, and an action that
/// burns that cost and closes the request with its end-to-end latency.
fn make_event(zipf: &Zipf, pareto: &Pareto, p: usize, i: u64) -> Event {
    let mut rng = StdRng::seed_from_u64(((p as u64) << 32) ^ i ^ 0x9E37_79B9_7F4A_7C15);
    let color = Color::new(zipf.sample(&mut rng) as u16);
    let cost = (pareto.sample(&mut rng) as u64).min(COST_CAP);
    let t0 = cycles::now();
    Event::new(color, cost).with_action(move |ctx| {
        cycles::spin(cost);
        ctx.complete_request(cycles::now().wrapping_sub(t0))
    })
}

/// Runs one scenario: `events` injections per producer, paced at one
/// event per `interval_cycles` per producer (unpaced when `None` — the
/// closed-loop capacity probe). Returns the report and the wall time in
/// seconds from injection start to full drain.
fn run_scenario(
    limits: QueueLimits,
    events: u64,
    interval_cycles: Option<u64>,
) -> (RunReport, f64) {
    let mut rt = build(limits);
    let keepalive = rt.injector().keepalive();
    let injector = rt.injector();
    let stopper = rt.injector();
    let runner = std::thread::spawn(move || rt.run());
    let zipf = Zipf::new(COLORS, 1.0);
    let pareto = Pareto::new(COST_SCALE as f64, 1.5);
    let wall = Instant::now();
    let start = cycles::now();
    let pool = InjectorPool::spawn_with(PRODUCERS, events, move |p, i| {
        if let Some(interval) = interval_cycles {
            let due = start + (i + 1) * interval;
            loop {
                let now = cycles::now();
                if now >= due {
                    break;
                }
                if due - now > 50_000 {
                    // Long wait: hand the CPU to the workers instead of
                    // burning it (essential on oversubscribed hosts).
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
        injector.inject(make_event(&zipf, &pareto, p, i));
    });
    pool.join().expect("producers must not panic");
    stopper.stop_when_idle();
    drop(keepalive);
    let report = runner.join().expect("runtime must not panic");
    (report, wall.elapsed().as_secs_f64())
}

/// Goodput in req/s and p99 in cycles of one [`measure`].
struct Measured {
    goodput_1x: f64,
    p99_1x: f64,
    goodput_4x: f64,
    p99_4x: f64,
    p99_unbounded: f64,
}

/// Runs 1x, 2x and 4x the rate of one event per `nominal_interval`
/// cycles per producer on the bounded runtime, then the unbounded 4x
/// control.
fn measure(limits: QueueLimits, nominal_interval: u64) -> Measured {
    let loaded = [1u64, 2, 4].map(|k| {
        let (report, secs) =
            run_scenario(limits, EVENTS_PER_PRODUCER * k, Some(nominal_interval / k));
        let t = report.total();
        let goodput = t.completed_requests as f64 / secs.max(1e-9);
        let p99 = report.latency_p99() as f64;
        println!(
            "overload/{k}x: goodput {goodput:>12.0} req/s  p99 {p99:>12.0} cy  \
             (completed {}, shed {} [{} by color] of {} offered)",
            t.completed_requests,
            t.shed_requests,
            t.shed_by_color,
            report.offered_requests(),
        );
        (goodput, p99)
    });
    let [(goodput_1x, p99_1x), _, (goodput_4x, p99_4x)] = loaded;

    // Control: the same 4x overload with no limits. Nothing is shed, so
    // every admitted event queues behind the whole backlog and the tail
    // grows with offered load.
    let (report, _) = run_scenario(
        QueueLimits::unbounded(),
        EVENTS_PER_PRODUCER * 4,
        Some(nominal_interval / 4),
    );
    let p99_unbounded = report.latency_p99() as f64;
    println!(
        "overload/4x unbounded control: p99 {p99_unbounded:>12.0} cy (completed {})",
        report.completed_requests()
    );
    Measured {
        goodput_1x,
        p99_1x,
        goodput_4x,
        p99_4x,
        p99_unbounded,
    }
}

fn main() {
    // Closed-loop capacity probe on an unbounded runtime: how fast do
    // the workers absorb this exact mix? This is an optimistic floor
    // for the per-event interval — burst arrival amortizes queue locks
    // and inbox merges that paced arrival pays per event.
    let (probe, _) = run_scenario(QueueLimits::unbounded(), EVENTS_PER_PRODUCER, None);
    let probe_start = cycles::now();
    let (probe2, _) = run_scenario(QueueLimits::unbounded(), EVENTS_PER_PRODUCER, None);
    let probe_cycles = cycles::now() - probe_start;
    let absorbed = probe2.events_processed().max(1);
    let capacity_cpe = (probe_cycles / absorbed).max(1);
    drop(probe);

    let limits = QueueLimits::default()
        .per_core_events(PER_CORE)
        .per_color_events(PER_COLOR)
        .inbox_backlog(INBOX);

    // Calibrate the nominal (1x) rate with short paced trials: halve
    // the rate until the bounded runtime admits ≥ 90% of offered load.
    // The probe alone is not enough — paced per-event absorption is
    // slower than burst absorption, and on oversubscribed hosts the
    // producers themselves take CPU from the workers.
    let mut nominal_interval = capacity_cpe * PRODUCERS as u64 * 10 / 8;
    for _ in 0..4 {
        let (trial, _) = run_scenario(limits, EVENTS_PER_PRODUCER / 4, Some(nominal_interval));
        let offered = trial.offered_requests().max(1);
        if trial.total().shed_requests * 20 <= offered {
            break;
        }
        nominal_interval *= 2;
    }
    // Nominal sits 1.5x below the calibrated knee: 1x must be a
    // comfortable below-capacity load (sheds ~0) for "goodput stays
    // flat from 1x to 4x" to mean anything — at the knee itself, 4x
    // measures the same saturated system three ways.
    nominal_interval = nominal_interval * 3 / 2;

    let mut m = measure(limits, nominal_interval);
    for _ in 0..RECALIBRATIONS {
        if m.p99_unbounded >= MIN_CONTROL_P99_OVER_1X * m.p99_1x {
            break;
        }
        nominal_interval /= 2;
        println!(
            "overload/control built no backlog (p99 < {MIN_CONTROL_P99_OVER_1X}x the 1x p99): \
             halving the interval to {nominal_interval} cy"
        );
        m = measure(limits, nominal_interval);
    }

    let goodput_ratio = m.goodput_4x / m.goodput_1x.max(1e-9);
    let p99_ratio = m.p99_4x / m.p99_unbounded.max(1e-9);
    println!("overload/goodput 4x over 1x: {goodput_ratio:.2}; p99 4x bounded over unbounded: {p99_ratio:.3}");
    let mut failed = false;
    if goodput_ratio < MIN_GOODPUT_4X_OVER_1X {
        eprintln!("FAIL: goodput collapsed under overload ({goodput_ratio:.2} < {MIN_GOODPUT_4X_OVER_1X})");
        failed = true;
    }
    if p99_ratio > MAX_P99_BOUNDED_OVER_UNBOUNDED {
        eprintln!("FAIL: the limits do not bound the tail ({p99_ratio:.3} > {MAX_P99_BOUNDED_OVER_UNBOUNDED})");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
