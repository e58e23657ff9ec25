//! Tier-1 allocation guard for the dispatch hot paths.
//!
//! The zero-allocation contract: once warm, neither the Mely queue's
//! push/pop churn (including steals), a steal attempt's victim choice,
//! nor the injection inbox's push/drain round trip touches the heap.
//! A simulated client/server round trip through `SimNet` and
//! `ClosedLoopLoad` is held to a counted budget per response instead:
//! its messages are heap buffers by design. This suite proves both with
//! a counting `#[global_allocator]` rather than by inspection.
//!
//! The counter is **thread-local**, so the default parallel test
//! harness (and any background thread) cannot pollute a measurement:
//! each test counts only allocations made on its own thread, and every
//! structure is driven single-threadedly here (`InjectionInbox::push`
//! is thread-safe but does not require multiple threads).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mely_repro::core::color::Color;
use mely_repro::core::event::Event;
use mely_repro::core::queue::MelyQueue;
use mely_repro::core::steal::{StealDomains, StealPolicy, WsPolicy};
use mely_repro::core::threaded::inbox::InjectionInbox;
use mely_repro::loadgen::{ClientProtocol, ClosedLoopLoad, LoadConfig};
use mely_repro::net::driver::Driver;
use mely_repro::net::{NetConfig, NetEvent, SimNet};
use mely_repro::topology::MachineModel;

struct CountingAlloc;

thread_local! {
    static ALLOC_OPS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with` so allocations during thread teardown (after the TLS
    // slot is destroyed) pass through uncounted instead of aborting.
    let _ = ALLOC_OPS.try_with(|c| c.set(c.get() + 1));
}

/// Heap acquisitions (alloc/realloc) performed by the current thread.
fn allocs_on_this_thread() -> u64 {
    ALLOC_OPS.try_with(Cell::get).unwrap_or(0)
}

// SAFETY: defers all memory management to `System`; only bumps a
// thread-local counter on the acquisition paths.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One high-churn round: every push creates a color-queue (48 distinct
/// colors, two events each) and every pop retires one — the allocating
/// path before buffer pooling existed.
fn churn_round(q: &mut MelyQueue) {
    for i in 0..48u16 {
        q.push(Event::new(Color::new(i + 1), 100));
        q.push(Event::new(Color::new(i + 1), 50));
    }
    while q.pop(10).is_some() {}
}

#[test]
fn mely_push_pop_steady_state_allocates_nothing() {
    let mut q = MelyQueue::with_capacity(true, 64);
    q.set_steal_cost_estimate(75);
    // Warm-up: fills the buffer pool, sizes the stealing-queue buckets
    // and the pop batch machinery.
    for _ in 0..3 {
        churn_round(&mut q);
    }
    let before = allocs_on_this_thread();
    for _ in 0..200 {
        churn_round(&mut q);
    }
    let delta = allocs_on_this_thread() - before;
    assert_eq!(
        delta, 0,
        "steady-state push/pop hit the allocator {delta} times"
    );
    assert!(q.buf_reuses() > 0, "the pool, not the allocator, served");
    q.assert_invariants();
}

#[test]
fn mely_steal_cycle_steady_state_allocates_nothing() {
    // Two cores' queues; each round migrates color-queues A→B, then
    // B→A, then drains both — detach/absorb must hand buffers through
    // without allocating once warm.
    let mut a = MelyQueue::with_capacity(true, 32);
    let mut b = MelyQueue::with_capacity(true, 32);
    let round = |a: &mut MelyQueue, b: &mut MelyQueue| {
        for i in 0..16u16 {
            a.push(Event::new(Color::new(i + 1), 10));
        }
        // The thief already holds newer events of the first 8 colors,
        // so the steals below take the absorb-into-existing path
        // (prepend + pool the emptied stolen buffer).
        for i in 0..8u16 {
            b.push(Event::new(Color::new(i + 1), 10));
        }
        // Steal half of A's colors into B (the half rule always accepts
        // a 1-of-16 color; core-queue order makes those colors 1..=8).
        for _ in 0..8 {
            if let Some((slot, _)) = a.choose_scan(None) {
                b.absorb(a.detach(slot));
            }
        }
        while a.pop(10).is_some() {}
        while b.pop(10).is_some() {}
    };
    for _ in 0..4 {
        round(&mut a, &mut b);
        round(&mut b, &mut a);
    }
    let before = allocs_on_this_thread();
    for _ in 0..100 {
        round(&mut a, &mut b);
        round(&mut b, &mut a);
    }
    let delta = allocs_on_this_thread() - before;
    assert_eq!(
        delta, 0,
        "steady-state detach/absorb hit the allocator {delta} times"
    );
    a.assert_invariants();
    b.assert_invariants();
}

#[test]
fn victim_choice_into_a_warm_buffer_allocates_nothing() {
    // Every policy shape a steal attempt can take: the busiest-first
    // wrap-around, the locality order, and the tiered order with its
    // per-tier sort, on a spoofed dual-socket SMT machine.
    let machine = MachineModel::from_spec("2s×4c×2t/l2=2/llc=8").unwrap();
    let domains = StealDomains::new(&machine, machine.num_cores());
    let shapes = [
        (StealPolicy::Flat, WsPolicy::base()),
        (StealPolicy::Flat, WsPolicy::improved()),
        (StealPolicy::Hierarchical, WsPolicy::base()),
    ];
    let mut loads: Vec<usize> = (0..16).map(|c| (c * 7) % 5).collect();
    let mut victims = Vec::new();
    let round = |loads: &mut Vec<usize>, victims: &mut Vec<usize>| {
        for (policy, ws) in shapes {
            for thief in 0..16 {
                loads.rotate_left(1);
                policy.victims(thief, loads, ws, &domains, victims);
                assert_eq!(victims.len(), 15);
            }
        }
    };
    round(&mut loads, &mut victims);
    let before = allocs_on_this_thread();
    for _ in 0..100 {
        round(&mut loads, &mut victims);
    }
    let delta = allocs_on_this_thread() - before;
    assert_eq!(
        delta, 0,
        "steady-state victim choice hit the allocator {delta} times"
    );
}

#[test]
fn inbox_push_drain_steady_state_allocates_nothing() {
    let inbox = InjectionInbox::new();
    // The drain buffer is pre-sized and reused, exactly like the worker
    // loop's, so after the warm-up rounds the inbox and the caller swap
    // two buffers that already hold a whole batch.
    let mut batch: Vec<Event> = Vec::with_capacity(256);
    let round = |inbox: &InjectionInbox, batch: &mut Vec<Event>| {
        for i in 0..128u16 {
            inbox.push(Event::new(Color::new(i), 10));
        }
        assert_eq!(inbox.drain_into(batch), 128);
        batch.clear();
    };
    for _ in 0..3 {
        round(&inbox, &mut batch);
    }
    let before = allocs_on_this_thread();
    for _ in 0..200 {
        round(&inbox, &mut batch);
    }
    let delta = allocs_on_this_thread() - before;
    assert_eq!(
        delta, 0,
        "steady-state inbox push/drain hit the allocator {delta} times"
    );
    assert!(inbox.total_node_reuses() >= 200 * 128);
}

/// A fixed-size request and response, as the simulated web server's
/// clients see them.
struct Ping {
    req: Vec<u8>,
    resp_len: usize,
}

impl ClientProtocol for Ping {
    fn request(&mut self, _client: usize, _seq: u64) -> Vec<u8> {
        self.req.clone()
    }
    fn response_len(&self, buf: &[u8]) -> Option<usize> {
        (buf.len() >= self.resp_len).then_some(self.resp_len)
    }
}

/// The toy server of the load generator's tests: accept everything and
/// answer every readable request with `resp`.
fn serve(net: &mut SimNet, now: u64, resp: &[u8]) {
    loop {
        let events = net.poll(now);
        if events.is_empty() {
            break;
        }
        for e in events {
            match e {
                NetEvent::Acceptable(port) => while net.accept(port, now).is_some() {},
                NetEvent::Readable(fd) => {
                    let _ = net.read(fd, now);
                    net.write(fd, now, resp.to_vec());
                }
                NetEvent::PeerClosed(fd) => {
                    net.close(fd, now);
                    net.reap(fd);
                }
            }
        }
    }
}

#[test]
fn simulated_round_trip_allocates_per_response_only_its_messages() {
    let mut net = SimNet::new(NetConfig { one_way_delay: 100 });
    net.listen(80);
    let mut load = ClosedLoopLoad::new(
        Ping {
            req: b"GET /file HTTP/1.1\r\n\r\n".to_vec(),
            resp_len: 64,
        },
        LoadConfig {
            clients: 8,
            ports: vec![80],
            requests_per_conn: u64::MAX,
            duration: u64::MAX,
            start_spread: 1_000,
            think_time: 0,
            poll_interval: 500,
        },
    );
    let resp = [7u8; 64];
    let mut now = 0;
    let mut run_until = |load: &mut ClosedLoopLoad<Ping>, net: &mut SimNet, responses: u64| {
        while load.stats().responses < responses {
            load.advance(net, now);
            serve(net, now, &resp);
            now = load.next_due(now).expect("keep-alive clients never finish");
        }
    };
    // Warm-up: every client connected, every buffer and heap sized.
    run_until(&mut load, &mut net, 1_000);
    let (before, responses) = (allocs_on_this_thread(), load.stats().responses);
    run_until(&mut load, &mut net, responses + 10_000);
    let allocs = allocs_on_this_thread() - before;
    let per_response = allocs as f64 / (load.stats().responses - responses) as f64;
    // Per response: the request the protocol builds, the response the
    // toy server copies out, and its share of one `poll` result per
    // batch of ready connections. Reads move segments, and the
    // client's re-arm and response buffer reuse what they hold.
    assert!(
        per_response <= 3.0,
        "a warm round trip allocates {per_response:.2} times per response"
    );
    assert_eq!(net.live_conns(), 8);
}
