//! Typed-dispatch overhead: the stage layer vs raw boxed-closure
//! chains.
//!
//! Both sides push the *same* workload through a 1-core simulator:
//! `CHAINS` four-hop request chains per iteration, zero declared cost,
//! submitted through the executor's injection path. The only difference
//! is the dispatch layer:
//!
//! - `stage/raw_chain` — hand-built [`Event`]s whose boxed closures
//!   capture the next hop directly, with hand-wired `HandlerId`s and
//!   hand-picked colors (the pre-stage idiom);
//! - `stage/typed_chain` — a four-stage typed pipeline
//!   (`mely_core::stage`): per-hop routing resolves the target entry
//!   and its coloring, and the final hop completes the request into
//!   the latency histogram.
//!
//! Like `micro_inject`, this bench does NOT use criterion's auto-sized
//! single-shot loop: the gated quantity is the typed/raw *ratio*, and
//! measuring one side seconds after the other lets scheduler drift on
//! a shared host masquerade as overhead. Instead the two sides run in
//! **alternating iterations** inside one process and each side reports
//! its minimum (noise is additive; the fastest window is the truest),
//! so load drift hits both sides symmetrically.
//!
//! `bench_gate --max-ratio stage/typed_chain,stage/raw_chain,1.10`
//! turns the ≤10 % overhead claim into a CI gate: ratios survive
//! machine changes, absolute ns/op do not.

use std::time::Instant;

use criterion::{emit_json, measure_budget};

use mely_core::color::Color;
use mely_core::event::Event;
use mely_core::exec::Executor;
use mely_core::prelude::{
    ExecKind, Flavor, PipelineBuilder, RuntimeBuilder, Stage, StageCtx, StageSpec, WsPolicy,
};

/// Four-hop chains submitted per measured iteration. Large enough that
/// the per-run fixed costs (mailbox drain, run-loop entry/exit)
/// amortize to noise against 4 × 256 dispatches.
const CHAINS: u64 = 256;

/// Floor on alternating raw/typed iteration pairs (budget-scaled
/// above this).
const MIN_PAIRS: usize = 20;

/// The message every hop forwards.
#[derive(Clone, Copy)]
struct Token {
    key: u64,
}

struct Hop1;
struct Hop2;
struct Hop3;
struct Hop4;

impl Stage for Hop1 {
    type In = Token;
    fn spec(&self) -> StageSpec<Token> {
        StageSpec::new("hop1").keyed(|t| t.key)
    }
    fn handle(&self, ctx: &mut StageCtx<'_, '_>, t: Token) {
        ctx.to::<Hop2>(t);
    }
}

impl Stage for Hop2 {
    type In = Token;
    fn spec(&self) -> StageSpec<Token> {
        StageSpec::new("hop2").inherit_color()
    }
    fn handle(&self, ctx: &mut StageCtx<'_, '_>, t: Token) {
        ctx.to::<Hop3>(t);
    }
}

impl Stage for Hop3 {
    type In = Token;
    fn spec(&self) -> StageSpec<Token> {
        StageSpec::new("hop3").keyed(|t| t.key.wrapping_mul(31))
    }
    fn handle(&self, ctx: &mut StageCtx<'_, '_>, t: Token) {
        ctx.to::<Hop4>(t);
    }
}

impl Stage for Hop4 {
    type In = Token;
    fn spec(&self) -> StageSpec<Token> {
        StageSpec::new("hop4")
    }
    fn handle(&self, ctx: &mut StageCtx<'_, '_>, _t: Token) {
        ctx.complete(());
    }
}

fn one_core_sim() -> mely_core::exec::Runtime {
    RuntimeBuilder::new()
        .cores(1)
        .flavor(Flavor::Mely)
        .workstealing(WsPolicy::off())
        .build(ExecKind::Sim)
}

/// Hand-wired handler ids — the raw idiom the issue's services used
/// before the stage port (`HandlerSpec`s registered manually, ids
/// captured into every closure).
#[derive(Clone, Copy)]
struct RawHandlers {
    h1: mely_core::handler::HandlerId,
    h2: mely_core::handler::HandlerId,
    h3: mely_core::handler::HandlerId,
    h4: mely_core::handler::HandlerId,
}

/// The raw four-hop chain: each hop's closure hand-builds the next
/// event — colors picked by hand, handler ids wired by hand, payload
/// smuggled through the captures — exactly like pre-stage application
/// code.
fn raw_chain(h: RawHandlers, key: u64) -> Event {
    let c1 = Color::new(1 + (key % 0x7FFF) as u16);
    let c3 = Color::new(1 + (key.wrapping_mul(31) % 0x7FFF) as u16);
    let c4 = Color::new(4);
    Event::for_handler(c1, h.h1).with_action(move |ctx| {
        ctx.register(Event::for_handler(c1, h.h2).with_action(move |ctx| {
            ctx.register(Event::for_handler(c3, h.h3).with_action(move |ctx| {
                ctx.register(Event::for_handler(c4, h.h4));
            }));
        }));
    })
}

fn main() {
    // --- raw side: one runtime, manual handler wiring. ---
    let mut raw_rt = one_core_sim();
    let h = RawHandlers {
        h1: raw_rt.register_handler(mely_core::handler::HandlerSpec::new("hop1")),
        h2: raw_rt.register_handler(mely_core::handler::HandlerSpec::new("hop2")),
        h3: raw_rt.register_handler(mely_core::handler::HandlerSpec::new("hop3")),
        h4: raw_rt.register_handler(mely_core::handler::HandlerSpec::new("hop4")),
    };
    let raw_injector = raw_rt.injector();
    // The sim's report is cumulative across runs: track the exact
    // expected total so a side that silently drops its work cannot
    // fake out the ratio gate.
    let mut raw_expected = 0u64;
    let mut run_raw = move || {
        for key in 0..CHAINS {
            raw_injector.inject(raw_chain(h, key));
        }
        raw_expected += 4 * CHAINS;
        assert_eq!(raw_rt.run().events_processed(), raw_expected);
    };

    // --- typed side: the same chain as a four-stage pipeline. No
    // output collector: the gate measures *dispatch*, and collection
    // has no raw equivalent; per-request latency accounting stays on
    // (Hop4 completes every chain) because it is part of every typed
    // dispatch. ---
    let mut typed_rt = one_core_sim();
    let pipeline = typed_rt.install(
        PipelineBuilder::new("bench")
            .stage(Hop1)
            .stage(Hop2)
            .stage(Hop3)
            .stage(Hop4)
            .build(),
    );
    let sender = pipeline.sender(typed_rt.injector());
    let mut typed_expected = 0u64;
    let mut run_typed = move || {
        for key in 0..CHAINS {
            sender.submit::<Hop1>(Token { key });
        }
        typed_expected += 4 * CHAINS;
        assert_eq!(typed_rt.run().events_processed(), typed_expected);
    };

    // Warm both sides and estimate one raw+typed pair, then size the
    // alternating loop to the measurement budget.
    let t0 = Instant::now();
    run_raw();
    run_typed();
    let est_pair = t0.elapsed().max(std::time::Duration::from_micros(1));
    let budget = measure_budget() * 2; // one budget per benchmark id
    let pairs = ((budget.as_nanos() / est_pair.as_nanos().max(1)) as usize).max(MIN_PAIRS);

    // Interleave at ITERATION granularity and keep each side's minimum:
    // one iteration is ~100 µs, so timing it individually costs nothing,
    // scheduler noise on a shared host is strictly additive, and a
    // single quiet window per side yields the true cost — with the
    // alternation giving both sides the same chance at every window.
    let mut raw = f64::INFINITY;
    let mut typed = f64::INFINITY;
    for _ in 0..pairs {
        let t = Instant::now();
        run_raw();
        raw = raw.min(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        run_typed();
        typed = typed.min(t.elapsed().as_nanos() as f64);
    }
    println!("stage/raw_chain   {raw:>12.1} ns/iter   (min over {pairs} alternating pairs)");
    println!(
        "stage/typed_chain {typed:>12.1} ns/iter   (typed/raw = {:.3}x)",
        typed / raw
    );
    emit_json("stage/raw_chain", raw);
    emit_json("stage/typed_chain", typed);
}
