//! Isolated layer replays (source **R** in the README): a layer's
//! public function timed alone, outside any runtime, on inputs captured
//! from the workload that just ran — its request bytes, its color
//! order, its data chunk. Where a workload has no such input (a
//! simulator run sends no HTTP), the replay falls back to inputs
//! generated from the seed, so every replay metric is measured in every
//! traced run.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mely_cachesim::Hierarchy;
use mely_core::color::Color;
use mely_core::event::Event;
use mely_core::exec::Executor;
use mely_core::handler::HandlerSpec;
use mely_core::prelude::{ExecKind, Flavor, RuntimeBuilder, WsPolicy};
use mely_core::queue::{LegacyQueue, MelyQueue};
use mely_core::threaded::inbox::InjectionInbox;
use mely_crypto::{Mac, SessionKey, StreamCipher};
use mely_http::{parse_request, ParseOutcome, ResponseCache};
use mely_net::{NetConfig, SimNet};
use mely_topology::MachineModel;

use crate::metrics::Sheet;
use crate::stats::median;
use crate::workloads::stage_chain::{pipeline, Completions, Hop1, Token};
use crate::workloads::{Rng, RunCfg};

/// Inputs a workload captured while it ran; empty fields are generated.
#[derive(Debug, Default)]
pub struct Captured {
    /// HTTP requests exactly as the client wrote them.
    pub requests: Vec<Vec<u8>>,
    /// Colors in the order the workload's events carry them.
    pub colors: Vec<u16>,
    /// One data chunk as the file server reads it.
    pub chunk: Vec<u8>,
}

/// Each replay measures for about this long.
const BUDGET: Duration = Duration::from_millis(30);
/// Events pushed and popped per timed batch of the queue replays.
const BATCH: usize = 64;

/// Median ns per item over timed batches of `items` items each; `f`
/// runs one batch. Returns `(ns per item, batches)`.
fn time_batches(items: usize, mut f: impl FnMut()) -> (f64, u64) {
    f(); // warm caches, pools and lazy tables
    let mut per_item = Vec::new();
    let start = Instant::now();
    while start.elapsed() < BUDGET || per_item.len() < 5 {
        let t = Instant::now();
        f();
        per_item.push(t.elapsed().as_nanos() as f64 / items as f64);
    }
    (median(&per_item), per_item.len() as u64)
}

fn filled(c: &Captured, cfg: &RunCfg) -> Captured {
    let mut rng = Rng::new(cfg.seed);
    Captured {
        requests: if c.requests.is_empty() {
            (0..256)
                .map(|_| crate::workloads::tcp::request_bytes(rng.below(150)))
                .collect()
        } else {
            c.requests.clone()
        },
        colors: if c.colors.is_empty() {
            (0..4_096).map(|_| 1 + rng.below(1_000) as u16).collect()
        } else {
            c.colors.clone()
        },
        chunk: if c.chunk.is_empty() {
            (0..8 << 10).map(|_| rng.next() as u8).collect()
        } else {
            c.chunk.clone()
        },
    }
}

pub fn run_all(s: &mut Sheet, captured: &Captured, cfg: &RunCfg) {
    let c = filled(captured, cfg);
    simnet_roundtrip(s, &c);
    http(s, &c);
    queues(s, &c);
    inbox(s, &c);
    steal(s, &c);
    crypto(s, &c);
    cachesim(s);
    typed_over_raw(s);
}

/// One request through an uncontended `SimNet`: connect, client write,
/// poll, accept, read, write, client read, close, reap — the calls the
/// gateway and the stages make between them for one request.
fn simnet_roundtrip(s: &mut Sheet, c: &Captured) {
    let mut cache = ResponseCache::new();
    cache.populate_uniform(1, 1024);
    let response = cache.lookup("/f0.bin").expect("populated").to_vec();
    let mut net = SimNet::new(NetConfig { one_way_delay: 0 });
    net.listen(80);
    let mut i = 0;
    let (ns, n) = time_batches(1, || {
        let request = c.requests[i % c.requests.len()].clone();
        i += 1;
        let fd = net.connect(80, 0).expect("listening");
        net.client_write(fd, 0, request);
        std::hint::black_box(net.poll(0));
        net.accept(80, 0);
        std::hint::black_box(net.read(fd, 0));
        net.write(fd, 0, response.clone());
        std::hint::black_box(net.client_read(fd, 0));
        net.close(fd, 0);
        net.reap(fd);
    });
    s.set("net.simnet.roundtrip_ns", ns, n);
}

fn http(s: &mut Sheet, c: &Captured) {
    let mut i = 0;
    let (ns, n) = time_batches(1, || {
        std::hint::black_box(parse_request(&c.requests[i % c.requests.len()]));
        i += 1;
    });
    s.set("http.parse_ns", ns, n);

    let mut cache = ResponseCache::new();
    cache.populate_uniform(150, 1024);
    let paths: Vec<String> = c
        .requests
        .iter()
        .filter_map(|r| match parse_request(r) {
            ParseOutcome::Complete(req, _) => Some(req.path),
            _ => None,
        })
        .collect();
    let mut i = 0;
    let (ns, n) = time_batches(1, || {
        std::hint::black_box(cache.lookup(&paths[i % paths.len()]));
        i += 1;
    });
    s.set("http.cache_lookup_ns", ns, n);
}

fn color_batches(c: &Captured) -> impl Iterator<Item = &[u16]> + '_ {
    c.colors.chunks_exact(BATCH).cycle()
}

/// Push + pop per event on long-lived queues (warm pools, as the
/// dispatch loop runs them), in the workload's own color order.
fn queues(s: &mut Sheet, c: &Captured) {
    let mut batches = color_batches(c);
    let mut q = MelyQueue::with_capacity(true, BATCH);
    let (ns, n) = time_batches(BATCH, || {
        for &color in batches.next().expect("cycled") {
            q.push(Event::new(Color::new(color), 0));
        }
        while let Some(ev) = q.pop(10) {
            std::hint::black_box(ev);
        }
    });
    s.set("core.queue.mely_push_pop_ns", ns, n);

    let mut batches = color_batches(c);
    let mut q = LegacyQueue::new();
    let (ns, n) = time_batches(BATCH, || {
        for &color in batches.next().expect("cycled") {
            q.push(Event::new(Color::new(color), 0));
        }
        while let Some(ev) = q.pop() {
            std::hint::black_box(ev);
        }
    });
    s.set("core.queue.legacy_push_pop_ns", ns, n);
}

/// Push + drain per event through one inbox, drained in batches into a
/// retained buffer like the owning worker does.
fn inbox(s: &mut Sheet, c: &Captured) {
    let mut batches = color_batches(c);
    let inbox = InjectionInbox::new();
    let mut drained = Vec::with_capacity(BATCH);
    let (ns, n) = time_batches(BATCH, || {
        for &color in batches.next().expect("cycled") {
            inbox.push(Event::new(Color::new(color), 0));
        }
        inbox.drain_into(&mut drained);
        drained.clear();
    });
    s.set("core.inbox.push_drain_ns", ns, n);
}

/// The thief's two calls on a victim queue holding 1 000 events in the
/// workload's colors: choose a worthy color, detach its color-queue.
/// Only the two calls are timed; refilling the queue is not.
fn steal(s: &mut Sheet, c: &Captured) {
    let mut samples = Vec::new();
    let start = Instant::now();
    while start.elapsed() < BUDGET || samples.len() < 5 {
        let mut q = MelyQueue::new(true);
        q.set_steal_cost_estimate(50);
        for &color in c.colors.iter().cycle().take(1_000) {
            q.push(Event::new(Color::new(color), 100));
        }
        let t = Instant::now();
        let detached = q.choose_worthy(None).map(|slot| q.detach(slot));
        samples.push(t.elapsed().as_nanos() as f64);
        std::hint::black_box((detached, q));
    }
    s.set(
        "core.steal.choose_detach_ns",
        median(&samples),
        samples.len() as u64,
    );
}

fn crypto(s: &mut Sheet, c: &Captured) {
    let key = SessionKey::from_seed(7);
    let kb = c.chunk.len() as f64 / 1024.0;
    let mut buf = c.chunk.clone();
    let (ns, n) = time_batches(1, || StreamCipher::new(&key, 1).apply(&mut buf));
    s.set("crypto.encrypt_ns_per_kb", ns / kb, n);
    let (ns, n) = time_batches(1, || {
        std::hint::black_box(Mac::new(&key).compute(&buf));
    });
    s.set("crypto.mac_ns_per_kb", ns / kb, n);
}

fn cachesim(s: &mut Sheet) {
    let mut h = Hierarchy::new(&MachineModel::xeon_e5410());
    let (ns, n) = time_batches(1, || {
        std::hint::black_box(h.sweep(0, 0, 64 << 10, 2));
    });
    s.set("cachesim.sweep_ns_per_kb", ns / 64.0, n);
}

/// `micro_stage`'s ratio: the same 256 four-hop chains through a 1-core
/// simulator as hand-built raw events and as the typed pipeline, in
/// alternating iterations, each side keeping its fastest.
fn typed_over_raw(s: &mut Sheet) {
    const CHAINS: u64 = 256;
    const PAIRS: usize = 30;
    let one_core = || {
        RuntimeBuilder::new()
            .cores(1)
            .flavor(Flavor::Mely)
            .workstealing(WsPolicy::off())
            .build(ExecKind::Sim)
    };
    let mut raw_rt = one_core();
    let h: Vec<_> = ["hop1", "hop2", "hop3", "hop4"]
        .into_iter()
        .map(|name| raw_rt.register_handler(HandlerSpec::new(name)))
        .collect();
    let (h1, h2, h3, h4) = (h[0], h[1], h[2], h[3]);
    let raw_injector = raw_rt.injector();
    let mut run_raw = || {
        for key in 0..CHAINS {
            let c1 = Color::new(1 + (key % 0x7FFF) as u16);
            let c3 = Color::new(1 + (key.wrapping_mul(31) % 0x7FFF) as u16);
            raw_injector.inject(Event::for_handler(c1, h1).with_action(move |ctx| {
                ctx.register(Event::for_handler(c1, h2).with_action(move |ctx| {
                    ctx.register(Event::for_handler(c3, h3).with_action(move |ctx| {
                        ctx.register(Event::for_handler(Color::new(4), h4));
                    }));
                }));
            }));
        }
        std::hint::black_box(raw_rt.run());
    };
    let mut typed_rt = one_core();
    let installed = typed_rt.install(pipeline(Arc::new(Completions::default())));
    let sender = installed.sender(typed_rt.injector());
    let mut run_typed = || {
        for key in 0..CHAINS {
            sender.submit::<Hop1>(Token { key, sent: None });
        }
        std::hint::black_box(typed_rt.run());
    };
    run_raw();
    run_typed();
    let (mut raw, mut typed) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..PAIRS {
        let t = Instant::now();
        run_raw();
        raw = raw.min(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        run_typed();
        typed = typed.min(t.elapsed().as_nanos() as f64);
    }
    s.set("core.stage.typed_over_raw", typed / raw, PAIRS as u64);
}
