//! End-to-end observability through a two-node [`NodePool`]: a pipelined
//! render must leave a retrievable trace whose stage spans cover the whole
//! pipeline (queue → plan → stage → render → reply) with monotone
//! timestamps, the pool-wide STATS snapshot must survive the wire
//! bit-exactly (sorted keys make re-encoding canonical), and each node's
//! snapshot must count that node's work and nobody else's.

use mgpu_net::heat::{decode_snapshot, encode_snapshot};
use mgpu_net::{Directory, NodePool, NodePoolConfig, RenderClient, RenderServer, ServerConfig};
use mgpu_obs::{names, CompletedTrace, Snapshot};
use mgpu_serve::{Priority, RenderBackend, SceneRequest, ServiceConfig, ServiceReport};
use mgpu_voldata::Dataset;
use mgpu_volren::camera::Scene;
use mgpu_volren::{RenderConfig, TransferFunction};

fn server() -> RenderServer {
    RenderServer::start(ServerConfig {
        shards: 2,
        service: ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("bind loopback server")
}

fn request(azimuth: f32) -> SceneRequest {
    let volume = Dataset::Skull.volume(8);
    SceneRequest {
        spec: mgpu_cluster::ClusterSpec::accelerator_cluster(1),
        scene: Scene::orbit(&volume, azimuth, 10.0, TransferFunction::bone()),
        volume,
        config: RenderConfig::test_size(8),
        priority: Priority::Normal,
    }
}

/// The stage spans a freshly rendered (cache-missing) frame must carry,
/// in pipeline order of their start timestamps.
const PIPELINE: [&str; 7] = [
    "admit",
    "queue",
    "plan",
    "stage",
    "kernel",
    "composite",
    "reply",
];

fn full_pipeline(trace: &CompletedTrace) -> bool {
    PIPELINE.iter().all(|name| trace.span(name).is_some())
}

/// Render through a two-node pool, then pull each node's trace ring over
/// the wire: at least one trace must cover the full pipeline with ≥ 6
/// named stage spans and monotone, well-formed timestamps.
#[test]
fn pool_render_leaves_a_full_pipeline_trace_on_some_node() {
    let (a, b) = (server(), server());
    let pool = NodePool::new(
        Directory::new(vec![a.addr(), b.addr()]).expect("two-node directory"),
        NodePoolConfig::default(),
    );

    // Distinct views: every frame is a frame-cache and plan-cache miss,
    // so each rendered frame records the full span set.
    for view in 0..4 {
        RenderBackend::render(&pool, request(view as f32 * 17.0)).expect("pool render");
    }

    let traces: Vec<CompletedTrace> = pool
        .node_traces(16)
        .into_iter()
        .flat_map(|node| node.expect("node traces reachable"))
        .collect();
    assert!(!traces.is_empty(), "rendering must leave traces");

    let full = traces
        .iter()
        .find(|t| full_pipeline(t))
        .expect("some node holds a full-pipeline trace");
    assert!(
        full.spans.len() >= 6,
        "expected ≥ 6 stage spans, got {:?}",
        full.span_names()
    );

    // Well-formed: every span ends at or after it starts, and the request
    // id seeding the trace is a real wire id (never 0).
    assert_ne!(full.id, 0, "trace id is the wire request id");
    for span in &full.spans {
        assert!(
            span.end_ns >= span.start_ns,
            "span {} runs backwards",
            span.name
        );
    }

    // Monotone: the pipeline stages start in pipeline order.
    let starts: Vec<u64> = PIPELINE
        .iter()
        .map(|name| full.span(name).unwrap().start_ns)
        .collect();
    for (i, pair) in starts.windows(2).enumerate() {
        assert!(
            pair[0] <= pair[1],
            "{} starts after {} ({} > {})",
            PIPELINE[i],
            PIPELINE[i + 1],
            pair[0],
            pair[1]
        );
    }

    a.shutdown();
    b.shutdown();
}

/// STATS is bit-exact on the wire: the pool-merged registry snapshot
/// re-encodes to the same bytes after a decode round trip (sorted keys
/// make the encoding canonical), and the decode reproduces the snapshot.
#[test]
fn pool_merged_snapshot_roundtrips_bit_exactly() {
    let (a, b) = (server(), server());
    let pool = NodePool::new(
        Directory::new(vec![a.addr(), b.addr()]).expect("two-node directory"),
        NodePoolConfig::default(),
    );
    // Touch both nodes so the merged snapshot carries real counters and
    // histograms from each.
    for view in 0..4 {
        RenderBackend::render(&pool, request(100.0 + view as f32 * 23.0)).expect("pool render");
    }
    for addr in [a.addr(), b.addr()] {
        let client = RenderClient::connect(addr).expect("connect node");
        client.stats().expect("node stats");
    }

    let merged = pool.obs_snapshot().expect("pool-wide snapshot");
    assert!(!merged.is_empty(), "rendering must populate the registry");
    assert!(
        merged.counter("serve.frames_completed").unwrap_or(0) >= 4,
        "merged snapshot sums both nodes' counters"
    );
    assert!(
        merged.histogram("serve.queue_wait_ns").is_some(),
        "stage histograms cross the wire"
    );

    let bytes = encode_snapshot(&merged);
    let decoded = decode_snapshot(&bytes).expect("canonical bytes decode");
    assert_eq!(decoded, merged, "decode reproduces the snapshot");
    assert_eq!(
        encode_snapshot(&decoded),
        bytes,
        "re-encoding is bit-exact (canonical sorted-key form)"
    );

    a.shutdown();
    b.shutdown();
}

/// The `serve.*` counters a snapshot holds must equal the typed report
/// built beside it.
fn assert_serve_counters_match(snap: &Snapshot, report: &ServiceReport, who: &str) {
    for (name, typed) in [
        (names::SERVE_FRAMES_SUBMITTED, report.frames_submitted),
        (names::SERVE_FRAMES_COMPLETED, report.frames_completed),
        (names::SERVE_FRAMES_RENDERED, report.frames_rendered),
        (names::SERVE_FRAMES_FAILED, report.frames_failed),
        (names::SERVE_FRAME_CACHE_HITS, report.cache_hits),
        (names::SERVE_PLAN_CACHE_HITS, report.plan_cache.hits),
        (names::SERVE_PLAN_CACHE_MISSES, report.plan_cache.misses),
        (names::SERVE_ADMISSION_REJECTED, report.admission_rejected),
        (names::SERVE_BATCHES, report.batches),
        (names::SERVE_BRICK_STAGINGS, report.brick_stagings),
        (names::SERVE_BRICK_REUSES, report.brick_reuses),
    ] {
        assert_eq!(snap.counter(name).unwrap_or(0), typed, "{who}: {name}");
    }
}

/// One accounting source: two servers in one process each count only
/// their own frames. Every request shares one batch key, so the pool
/// sends all 16 renders to one node and the other renders nothing. The
/// idle node's STATS snapshot must not count its neighbour's work, each
/// node's snapshot must agree with its own merged report, and the
/// pool-wide snapshot must agree with the pool-wide report.
#[test]
fn idle_node_snapshot_counts_none_of_its_neighbours_frames() {
    let (a, b) = (server(), server());
    let pool = NodePool::new(
        Directory::new(vec![a.addr(), b.addr()]).expect("two-node directory"),
        NodePoolConfig::default(),
    );
    let busy = pool.node_for(&request(0.0));
    for view in 0..16 {
        RenderBackend::render(&pool, request(200.0 + view as f32 * 7.0)).expect("pool render");
    }

    let stats: Vec<_> = pool
        .node_stats()
        .into_iter()
        .map(|node| node.expect("node stats reachable"))
        .collect();
    assert_eq!(stats[busy].merged.frames_completed, 16);
    assert_eq!(
        stats[1 - busy]
            .obs
            .counter(names::SERVE_FRAMES_COMPLETED)
            .unwrap_or(0),
        0,
        "the idle node must not count the busy node's frames"
    );
    for (node, node_stats) in stats.iter().enumerate() {
        assert_serve_counters_match(&node_stats.obs, &node_stats.merged, &format!("node {node}"));
    }

    let report = pool.report().expect("pool report");
    assert_eq!(report.frames_completed, 16);
    let merged = pool.obs_snapshot().expect("pool-wide snapshot");
    assert_serve_counters_match(&merged, &report, "pool");

    a.shutdown();
    b.shutdown();
}
