//! Pins of the simulator's virtual time, which
//! [`RunReport::fingerprint`](mely_repro::core::metrics::RunReport::fingerprint)
//! does not hash.
//!
//! A fingerprint says what ran where and in which order; these pins say
//! when. Each scenario pins its wall clock and, per core, the events
//! processed, steal attempts, idle cycles, failed-steal cycles and
//! lock-wait cycles. A change to the cost model or to the run loop's
//! core pick moves them and re-pins them on purpose; a change that only
//! makes the simulator faster on the host leaves every literal alone.

use mely_repro::bench::scenarios::{sfs_run, sws_run};
use mely_repro::bench::workloads::unbalanced::{unbalanced, UnbalancedCfg};
use mely_repro::bench::PaperConfig;
use mely_repro::core::metrics::RunReport;
use mely_repro::core::prelude::*;

/// One core's pinned fields: events processed, steal attempts, idle,
/// failed-steal and lock-wait cycles.
type CoreTimes = [u64; 5];

fn assert_times(name: &str, r: &RunReport, wall: u64, cores: &[CoreTimes]) {
    let got: Vec<CoreTimes> = r
        .per_core()
        .iter()
        .map(|m| {
            [
                m.events_processed,
                m.steal_attempts,
                m.idle_cycles,
                m.failed_steal_cycles,
                m.lock_wait_cycles,
            ]
        })
        .collect();
    assert_eq!(
        (r.wall_cycles(), got),
        (wall, cores.to_vec()),
        "{name}: simulated time moved"
    );
}

#[test]
fn unbalanced_time_is_pinned() {
    let cfg = UnbalancedCfg {
        events_per_round: 1_000,
        duration: 3_000_000,
        ..UnbalancedCfg::default()
    };
    let r = unbalanced(PaperConfig::MelyImprovedWs, &cfg);
    assert_times(
        "unbalanced",
        &r,
        3191844,
        &[
            [6859, 0, 0, 0, 102736],
            [20, 4160, 2484000, 2484000, 25204],
            [19, 4212, 2515800, 2515800, 30033],
            [22, 4167, 2487000, 2487000, 27860],
            [21, 4116, 2457000, 2457000, 19782],
            [21, 4078, 2434200, 2434200, 14890],
            [18, 4149, 2478600, 2478600, 10151],
            [20, 4170, 2490000, 2490000, 27047],
        ],
    );
}

#[test]
fn web_server_time_is_pinned() {
    let r = sws_run(PaperConfig::MelyImprovedWs, 200, 30_000_000);
    assert_times(
        "sws Mely - WS",
        &r.report,
        32712619,
        &[
            [1429, 10074, 6171567, 6026400, 2660021],
            [1445, 7012, 4839515, 4189200, 3804003],
            [1558, 1762, 1196050, 1042800, 2269099],
            [1423, 9905, 6332415, 5928000, 2528528],
            [1497, 10051, 6356335, 6010200, 597111],
            [1434, 10417, 6554128, 6236400, 2160362],
            [1423, 10472, 6675605, 6268200, 2206928],
            [1425, 10521, 6701985, 6294000, 2179350],
        ],
    );
    let r = sws_run(PaperConfig::LibasyncWs, 200, 30_000_000);
    assert_times(
        "sws Libasync - WS",
        &r.report,
        33133891,
        &[
            [1462, 8635, 6163600, 5821902, 2725673],
            [1601, 619, 618131, 362520, 7644289],
            [1647, 332, 289120, 198600, 2629655],
            [1439, 8627, 6416560, 6072762, 3235899],
            [1439, 8624, 6416885, 6072467, 3241229],
            [1440, 8598, 6402210, 6057172, 3241689],
            [1453, 8576, 6389935, 6044277, 1583888],
            [1438, 8534, 6439433, 6019982, 3257775],
        ],
    );
}

#[test]
fn file_server_time_is_pinned() {
    let r = sfs_run(PaperConfig::MelyImprovedWs, 16, 60_000_000);
    assert_times(
        "sfs Mely - WS",
        &r.report,
        72915730,
        &[
            [12, 94868, 56938276, 56913600, 6475593],
            [258, 7250, 4374000, 4350000, 61683336],
            [20, 94573, 56732400, 56732400, 7253063],
            [18, 89224, 54327505, 53524200, 8853759],
            [36, 94183, 57316803, 56499000, 6462934],
            [13, 96098, 57663611, 57651000, 6461271],
            [18, 90566, 54328800, 54328800, 8070599],
            [13, 96184, 57715211, 57702600, 5685654],
        ],
    );
}

/// Three cores under an explicit flat policy, all work pinned to core
/// 0: every handler fans out to a routed color and some arm a timer, so
/// idle thieves poll across timer deliveries and routed arrivals.
#[test]
fn flat_fan_out_with_timers_time_is_pinned() {
    let pins: [(Flavor, WsPolicy, u64, &[CoreTimes]); 2] = [
        (
            Flavor::Mely,
            WsPolicy::improved(),
            180285,
            &[
                [35, 3, 600, 600, 32100],
                [44, 12, 15170, 0, 50605],
                [33, 8, 17605, 600, 20635],
            ],
        ),
        (
            Flavor::Libasync,
            WsPolicy::base(),
            276340,
            &[
                [42, 0, 0, 0, 139990],
                [33, 28, 55835, 41670, 59520],
                [37, 12, 47835, 15730, 44145],
            ],
        ),
    ];
    for (flavor, ws, wall, cores) in pins {
        let mut rt = RuntimeBuilder::new()
            .cores(3)
            .flavor(flavor)
            .workstealing(ws)
            .steal_policy(StealPolicy::Flat)
            .build(ExecKind::Sim);
        for i in 0..48u16 {
            let ev = Event::new(Color::new(i + 1), 2_000 + 700 * (i as u64 % 5));
            rt.register_pinned(
                ev.with_action(move |ctx| {
                    ctx.register(Event::new(Color::new(100 + i % 7), 900));
                    if i % 3 == 0 {
                        ctx.register_after(40_000, Event::new(Color::new(200 + i), 6_000));
                    }
                }),
                0,
            );
        }
        let r = rt.run();
        assert_times(&format!("flat {flavor:?} {ws}"), &r, wall, cores);
    }
}
