//! API-surface snapshot of `mely_core::prelude`.
//!
//! The prelude is the public face of the runtime: applications and
//! service crates are expected to compile against it alone. This test
//! pins the exact set of names it re-exports, so any addition or
//! removal shows up as an explicit, reviewable diff of the snapshot
//! below instead of silently widening or breaking the public API.
//!
//! Two layers:
//!
//! - a *compile-time* check that every snapshot name still resolves
//!   through `mely_repro::core::prelude` (removal breaks the build);
//! - a *source-level* check that parses the `pub use` lines of the
//!   prelude module and compares them against the snapshot (addition
//!   fails the test until the snapshot is updated deliberately).

/// The snapshot: every name `mely_core::prelude` re-exports, sorted.
const PRELUDE_EXPORTS: &[&str] = &[
    "Collected",
    "Color",
    "ColorRange",
    "ColorSpace",
    "CoreMetrics",
    "CostParams",
    "Ctx",
    "DataSetRef",
    "Event",
    "ExecKind",
    "Executor",
    "Fault",
    "FaultKind",
    "FaultPlan",
    "Flavor",
    "HandlerId",
    "HandlerSpec",
    "Injector",
    "KeepAlive",
    "LatencyHistogram",
    "MachineModel",
    "Overload",
    "OverloadReason",
    "Pipeline",
    "PipelineBuilder",
    "QueueLimits",
    "RunFingerprint",
    "RunReport",
    "Runtime",
    "RuntimeBuilder",
    "ScheduleRng",
    "Service",
    "Stage",
    "StageCtx",
    "StageSender",
    "StageSpec",
    "StealDomains",
    "StealPolicy",
    "StealTier",
    "WsPolicy",
];

/// Compile-time resolution of every snapshot name. A name removed from
/// the prelude fails this function's compilation, not just the test.
#[allow(dead_code)]
fn every_export_resolves() {
    use mely_repro::core::prelude as p;
    fn ty<T: ?Sized>() {}
    fn tr<T: p::Stage>() {}
    ty::<p::Collected<u64>>();
    ty::<p::Color>();
    ty::<p::ColorRange>();
    ty::<p::ColorSpace>();
    ty::<p::CoreMetrics>();
    ty::<p::CostParams>();
    ty::<p::Ctx<'_>>();
    ty::<p::DataSetRef>();
    ty::<p::Event>();
    ty::<p::ExecKind>();
    ty::<dyn p::Executor>();
    ty::<p::Fault>();
    ty::<p::FaultKind>();
    ty::<p::FaultPlan>();
    ty::<p::Flavor>();
    ty::<p::HandlerId>();
    ty::<p::HandlerSpec>();
    ty::<p::Injector>();
    ty::<p::KeepAlive>();
    ty::<p::LatencyHistogram>();
    ty::<p::MachineModel>();
    ty::<p::Overload>();
    ty::<p::OverloadReason>();
    ty::<p::Pipeline>();
    ty::<p::PipelineBuilder>();
    ty::<p::QueueLimits>();
    ty::<p::RunFingerprint>();
    ty::<p::RunReport>();
    ty::<p::Runtime>();
    ty::<p::RuntimeBuilder>();
    ty::<p::ScheduleRng>();
    ty::<dyn p::Service>();
    ty::<p::StageCtx<'_, '_>>();
    ty::<p::StageSender>();
    ty::<p::StageSpec<u64>>();
    ty::<p::StealDomains>();
    ty::<p::StealPolicy>();
    ty::<p::StealTier>();
    ty::<p::WsPolicy>();
    // `Stage` is a non-object-safe trait (associated types, Sized):
    // resolve it through a bound instead of a `dyn` type.
    struct Nop;
    impl p::Stage for Nop {
        type In = ();
        fn spec(&self) -> p::StageSpec<()> {
            p::StageSpec::new("nop")
        }
        fn handle(&self, _ctx: &mut p::StageCtx<'_, '_>, _msg: ()) {}
    }
    tr::<Nop>();
}

/// Extracts the names re-exported by the `pub mod prelude { .. }` block
/// of mely-core's lib.rs. Statement-oriented (split on `;` with
/// whitespace flattened), so rustfmt wrapping a long grouped import
/// across lines does not hide its names.
fn parse_prelude_exports(src: &str) -> Vec<String> {
    let start = src
        .find("pub mod prelude {")
        .expect("mely-core must have a prelude module");
    let block = &src[start..];
    let end = block.find("\n}").expect("prelude block must close");
    let mut names = Vec::new();
    for stmt in block[..end].split(';') {
        let flat = stmt.split_whitespace().collect::<Vec<_>>().join(" ");
        let Some(pos) = flat.find("pub use ") else {
            continue;
        };
        let rest = &flat[pos + "pub use ".len()..];
        // `path::to::{A, B}` or `path::to::Name`.
        if let Some(brace) = rest.find('{') {
            let inner = rest[brace + 1..].trim_end_matches('}');
            for name in inner.split(',') {
                let name = name.trim();
                if !name.is_empty() {
                    names.push(name.to_string());
                }
            }
        } else {
            let name = rest.rsplit("::").next().expect("path has a tail").trim();
            names.push(name.to_string());
        }
    }
    names.sort();
    names
}

#[test]
fn prelude_surface_matches_the_snapshot() {
    let src = include_str!("../crates/core/src/lib.rs");
    let actual = parse_prelude_exports(src);
    let expected: Vec<String> = PRELUDE_EXPORTS.iter().map(|s| s.to_string()).collect();
    assert!(
        expected.windows(2).all(|w| w[0] < w[1]),
        "keep the snapshot sorted and duplicate-free"
    );
    assert_eq!(
        actual, expected,
        "mely_core::prelude changed; update PRELUDE_EXPORTS deliberately \
         (and the README migration table if a name moved)"
    );
}

#[test]
fn parser_handles_grouped_single_and_wrapped_imports() {
    let src = "pub mod prelude {\n    pub use a::b::{Z, Y};\n    pub use c::X;\n}\n";
    assert_eq!(parse_prelude_exports(src), vec!["X", "Y", "Z"]);
    // rustfmt wraps long grouped imports across lines; the names must
    // still be seen.
    let wrapped =
        "pub mod prelude {\n    pub use a::b::{\n        Q, P,\n    };\n    pub use c::X;\n}\n";
    assert_eq!(parse_prelude_exports(wrapped), vec!["P", "Q", "X"]);
}
