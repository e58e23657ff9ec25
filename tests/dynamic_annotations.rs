//! The paper's future-work extension (Section VII): "dynamically set
//! time-left annotations ... based on automated monitoring of the
//! running time ... of each handler."
//!
//! A handler whose *annotation* is wrong (it claims to be tiny, so the
//! time-left heuristic considers its colors unworthy) is fixed by
//! measured-cost mode: after the first executions, the monitored EWMA
//! replaces the annotation, the colors become worthy, and stealing
//! resumes.

use mely_repro::core::cycles;
use mely_repro::core::handler::HandlerSpec;
use mely_repro::core::prelude::*;

/// Rounds of independent events bound to `handler`, pinned to core 0;
/// the action charges the handler's *true* cost.
fn run_rounds(measured: bool) -> (RunReport, u64) {
    let mut rt = RuntimeBuilder::new()
        .cores(8)
        .flavor(Flavor::Mely)
        .workstealing(WsPolicy::base().with_time_left(true))
        .build(ExecKind::Sim);
    // Annotated as 50 cycles — far below any steal cost, so the
    // time-left gate sees the colors as unworthy. True cost: 30K.
    let spec = HandlerSpec::new("mis-annotated").cost(50);
    let spec = if measured { spec.measured() } else { spec };
    let handler = rt.register_handler(spec);
    for _round in 0..6 {
        for i in 0..64u16 {
            rt.register_pinned(
                Event::for_handler(Color::new(i + 1), handler)
                    .with_action(|ctx| ctx.charge(30_000)),
                0,
            );
        }
        rt.run();
    }
    let est = rt.handler_estimate(handler);
    // Nothing is queued any more: this only reads the cumulative report.
    (rt.run(), est)
}

#[test]
fn measured_costs_recover_from_a_wrong_annotation() {
    let (annotated, est_a) = run_rounds(false);
    let (measured, est_m) = run_rounds(true);

    // Annotated mode never learns: estimate stays 50, colors unworthy,
    // (almost) nothing is stolen and core 0 runs everything serially.
    assert_eq!(est_a, 50);
    assert_eq!(annotated.total().steals, 0, "unworthy colors, no steals");

    // Measured mode converges to the true cost and starts stealing.
    assert!(
        est_m > 10_000,
        "EWMA must converge toward the true 30K cost, got {est_m}"
    );
    assert!(measured.total().steals > 0, "worthy colors get stolen");
    assert!(
        measured.kevents_per_sec() > annotated.kevents_per_sec() * 1.5,
        "monitoring must unlock the parallelism: {:.0} vs {:.0} KEvents/s",
        measured.kevents_per_sec(),
        annotated.kevents_per_sec()
    );
}

/// The same mistake on real threads, where nothing is charged: the
/// handler's body *takes* 30K cycles, and the time the kernel measures
/// around it is what a `.measured()` handler hands to time-left.
fn run_rounds_threaded(measured: bool) -> (u64, u64) {
    let mut rt = RuntimeBuilder::new()
        .cores(4)
        .flavor(Flavor::Mely)
        .workstealing(WsPolicy::base().with_time_left(true))
        .build(ExecKind::Threaded);
    let spec = HandlerSpec::new("mis-annotated").cost(50);
    let spec = if measured { spec.measured() } else { spec };
    let handler = rt.register_handler(spec);
    let mut steals = 0;
    for _round in 0..6 {
        for i in 0..256u16 {
            rt.register_pinned(
                Event::for_handler(Color::new(i + 1), handler)
                    .with_action(|_| cycles::spin(30_000)),
                0,
            );
        }
        steals += rt.run().total().steals;
    }
    (steals, rt.handler_estimate(handler))
}

#[test]
fn measured_costs_recover_from_a_wrong_annotation_on_threads() {
    // Annotated: 50 stays 50, below the steal-cost estimate, so no
    // color is ever worthy and that estimate never moves either.
    assert_eq!(run_rounds_threaded(false), (0, 50));

    // Measured: the first round runs serially on core 0 and teaches the
    // registry the real cost; later rounds register worthy colors.
    let (steals, est) = run_rounds_threaded(true);
    assert!(est > 10_000, "EWMA must follow the real 30K, got {est}");
    assert!(steals > 0, "worthy colors get stolen");
}

#[test]
fn measured_costs_only_affect_future_registrations() {
    // The estimate is sampled at registration time: events already
    // queued keep their costs, which is what makes the mechanism safe to
    // enable live (no retroactive re-weighting).
    let mut rt = RuntimeBuilder::new()
        .cores(2)
        .flavor(Flavor::Mely)
        .workstealing(WsPolicy::off())
        .build(ExecKind::Sim);
    let h = rt.register_handler(HandlerSpec::new("m").cost(100).measured());
    rt.register(Event::for_handler(Color::new(1), h).with_action(|ctx| ctx.charge(9_000)));
    rt.run();
    let est = rt.handler_estimate(h);
    assert!(est > 5_000, "estimate follows the observed cost, got {est}");
}
