//! The wire format: a versioned, length-prefixed binary framing plus the
//! protocol's one codec, the [`Request`] and [`Reply`] enums — one variant
//! per opcode, each with one `encode` and one `decode`, so the pairing of
//! an opcode with its payload lives in exactly one place. Hand-rolled over
//! `std` only — the build environment has no registry access, and the
//! format is small enough that explicit little-endian field writes are
//! clearer than a serializer anyway.
//!
//! ## Framing (v3)
//!
//! Every message (either direction) is one frame:
//!
//! | field      | bytes | value                                      |
//! |------------|-------|--------------------------------------------|
//! | magic      | 4     | the bytes `MGPU` (LE u32 `0x5550474D`)     |
//! | version    | 2     | [`VERSION`]                                |
//! | opcode     | 1     | [`opcode`] constant                        |
//! | length     | 4     | payload bytes that follow the request id   |
//! | request_id | 8     | correlates a response with its request     |
//! | payload    | n     | opcode-specific encoding                   |
//!
//! The `request_id` (new in v3) is chosen by the client, must be unique
//! among that connection's outstanding requests, and is echoed verbatim on
//! every response to the request — which is what lets one connection carry
//! many in-flight renders and redeem the replies out of order. Requests the
//! server originates no reply for do not exist; unsolicited server frames
//! ([`opcode::UNSUPPORTED_VERSION`], [`opcode::BAD_REQUEST`] for unframable
//! input) carry request id 0.
//!
//! Integers and float bit patterns are little-endian. Floats travel as
//! [`f32::to_bits`]/[`f64::to_bits`], so decoding reconstructs the exact
//! input — the bit-identity guarantee of the render service extends across
//! the socket.
//!
//! Every decode error is a typed [`WireError`]; malformed and truncated
//! input can never panic the peer (a property test drives arbitrary
//! corruption through [`Request::decode`], [`Reply::decode`] and
//! [`read_frame`]).
//!
//! ### Migration from v2
//!
//! The 11-byte header layout is unchanged, so a v2 peer can always frame a
//! v3 header (and vice versa) far enough to read the version field and fail
//! with a typed [`WireError::UnsupportedVersion`]. The server goes one step
//! further: a request frame carrying any version other than [`VERSION`] is
//! answered with a typed [`opcode::UNSUPPORTED_VERSION`] reply (payload:
//! `got`, `want` as u16s, see [`Reply::UnsupportedVersion`]) before the
//! connection closes cleanly — a v2 client sees an orderly refusal instead
//! of a silent disconnect.

use std::borrow::Cow;
use std::io::{Read, Write};
use std::time::Duration;

use mgpu_cluster::ClusterSpec;
use mgpu_mapreduce::{Assignment, TraceOptions};
use mgpu_obs::{CompletedTrace, SpanRecord};
use mgpu_serve::{AdmissionError, FrameError, Priority};
use mgpu_voldata::{Dataset, Volume};
use mgpu_volren::camera::Scene;
use mgpu_volren::config::{Compositor, PartitionStrategy, RenderConfig, Residency};
use mgpu_volren::transfer::ControlPoint;
use mgpu_volren::{Image, TransferFunction};

use crate::heat::{get_stats, put_stats, NetStats};

/// Frame magic: the ASCII bytes `MGPU` as a little-endian `u32`
/// (`0x5550474D`) — a packet capture shows the literal characters "MGPU"
/// at every frame boundary.
pub const MAGIC: u32 = u32::from_le_bytes(*b"MGPU");
/// Protocol version this build speaks. Bumped on any incompatible change;
/// the server answers other versions with a typed
/// [`opcode::UNSUPPORTED_VERSION`] reply (and decoders fail with
/// [`WireError::UnsupportedVersion`]). v2 replaced the orbit-only camera
/// fields with [`CameraSpec`]; v3 added the per-request `request_id` that
/// multiplexes many in-flight renders over one connection; v4 added the
/// elastic-pool control opcodes ([`opcode::DRAIN`] / [`opcode::RESUME`] /
/// [`opcode::PREWARM`] and their replies) and the directory epoch carried
/// by the `STATS` payload; v5 reshaped the `STATS_REPORT` payload into
/// the epoch, the node snapshot and one snapshot per shard (see
/// [`crate::heat::encode_stats`]).
pub const VERSION: u16 = 5;
/// Frame header bytes: magic + version + opcode + length.
pub const HEADER_BYTES: usize = 4 + 2 + 1 + 4;
/// Fixed-size frame prelude: the header plus the 8-byte request id. A
/// reader consumes `PRELUDE_BYTES`, then the `length` payload bytes the
/// header declared.
pub const PRELUDE_BYTES: usize = HEADER_BYTES + 8;
/// Default cap on a single payload (a 1024² float-RGBA frame is 16 MiB;
/// 64 MiB leaves room for shipped in-memory volumes without letting one
/// frame OOM the peer).
pub const DEFAULT_MAX_PAYLOAD: u64 = 64 << 20;

/// Request and response opcodes. Responses have the high bit set.
pub mod opcode {
    pub const PING: u8 = 0x01;
    pub const RENDER: u8 = 0x02;
    pub const SUBMIT: u8 = 0x03;
    pub const REDEEM: u8 = 0x04;
    /// Ask for the node's accounting; answered with [`STATS_REPORT`].
    pub const STATS: u8 = 0x05;
    /// Fetch the last N completed request traces from the server's trace
    /// ring; payload is the maximum count as a u32.
    pub const TRACES: u8 = 0x06;
    /// Put the server into the draining state (payload: the controller's
    /// directory epoch as a u64): in-flight work and parked redeems still
    /// answer, new `RENDER`/`SUBMIT` get a typed [`DRAINING`] reply, and
    /// the server says [`GOODBYE`] once it owes nothing more.
    /// Idempotent; answered with [`DRAIN_STATE`]. New in v4.
    pub const DRAIN: u8 = 0x07;
    /// Leave the draining state (payload: epoch, like [`DRAIN`]) — the
    /// rejoin half of a drain that was called off. Idempotent; answered
    /// with [`DRAIN_STATE`]. New in v4.
    pub const RESUME: u8 = 0x08;
    /// Populate the owning shard's plan cache for a request's `BatchKey`
    /// *before* traffic moves there (payload: epoch + a full render
    /// request), so a placement cutover never costs a cold start. The plan
    /// builds off the event loop, on a dedicated pre-warm worker; answered
    /// with [`PREWARMED`] when the plan is resident. New in v4.
    pub const PREWARM: u8 = 0x09;

    pub const PONG: u8 = 0x81;
    pub const FRAME: u8 = 0x82;
    pub const SUBMITTED: u8 = 0x83;
    pub const REJECTED: u8 = 0x84;
    pub const THROTTLED: u8 = 0x85;
    pub const FAILED: u8 = 0x86;
    /// Reply to [`STATS`]: the directory epoch, the node's obs snapshot
    /// and one `(wall time, snapshot)` pair per shard. Reshaped in v5.
    pub const STATS_REPORT: u8 = 0x87;
    /// Per-session ticket table is full: redeem before submitting more.
    pub const TICKETS_FULL: u8 = 0x88;
    /// The request frame declared a protocol version this server does not
    /// speak; payload is `(got, want)` and the connection closes after the
    /// reply flushes. New in v3 — the migration path for v2 clients.
    pub const UNSUPPORTED_VERSION: u8 = 0x89;
    /// Reply to [`TRACES`]: the newest completed traces, newest first (see
    /// [`crate::wire::Reply::Traces`]).
    pub const TRACES_REPLY: u8 = 0x8A;
    /// Reply to [`DRAIN`] / [`RESUME`]: whether the server is draining,
    /// how many requests it still owes (in-flight renders + un-redeemed
    /// tickets + parked redeems, across all sessions), and the highest
    /// directory epoch it has been told. New in v4.
    pub const DRAIN_STATE: u8 = 0x8B;
    /// Reply to [`PREWARM`]: the owning shard index and whether a plan was
    /// newly built (`false` = the cache was already warm). New in v4.
    pub const PREWARMED: u8 = 0x8C;
    /// Unsolicited (request id 0) farewell from a draining server that
    /// owes nothing more: every outstanding request has been answered and
    /// the connection closes after this frame flushes. New in v4.
    pub const GOODBYE: u8 = 0x8D;
    /// Typed refusal of `RENDER`/`SUBMIT` while the server is
    /// draining (payload: the server's directory epoch, so a stale client
    /// learns placement moved on without it). The connection stays open —
    /// redeems and stats still answer. New in v4.
    pub const DRAINING: u8 = 0x8E;
    pub const BAD_REQUEST: u8 = 0xFF;
}

/// Everything that can go wrong between bytes and messages. Framing errors
/// (`BadMagic`, `UnsupportedVersion`, `Truncated`, `TooLarge`) mean the
/// stream position is lost and the connection must close — the server also
/// closes on `UnknownOpcode`, since a peer dispatching unknown requests is
/// not speaking this protocol; payload errors (`Malformed`,
/// `TrailingBytes`) poison only the offending request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Underlying socket error (kind only: portable and comparable).
    Io(std::io::ErrorKind),
    /// The peer closed the connection at a frame boundary.
    ConnectionClosed,
    BadMagic(u32),
    UnsupportedVersion {
        got: u16,
        want: u16,
    },
    UnknownOpcode(u8),
    /// The payload ended before a field did.
    Truncated {
        needed: usize,
        have: usize,
    },
    /// The payload continued past the last field.
    TrailingBytes {
        extra: usize,
    },
    /// A field decoded to an impossible value (bad enum tag, bad bool,
    /// bad UTF-8, dimension mismatch, unknown dataset, …).
    Malformed(String),
    /// Declared payload length exceeds the configured bound.
    TooLarge {
        len: u64,
        max: u64,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(kind) => write!(f, "socket error: {kind}"),
            WireError::ConnectionClosed => write!(f, "connection closed"),
            WireError::BadMagic(got) => {
                write!(f, "bad frame magic {got:#010x} (want {MAGIC:#010x})")
            }
            WireError::UnsupportedVersion { got, want } => {
                write!(
                    f,
                    "unsupported protocol version {got} (this build speaks {want})"
                )
            }
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::Truncated { needed, have } => {
                write!(f, "truncated payload: needed {needed} bytes, have {have}")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "malformed payload: {extra} trailing bytes")
            }
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
            WireError::TooLarge { len, max } => {
                write!(f, "payload of {len} bytes exceeds the {max}-byte bound")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(err: std::io::Error) -> WireError {
        match err.kind() {
            std::io::ErrorKind::UnexpectedEof => WireError::ConnectionClosed,
            kind => WireError::Io(kind),
        }
    }
}

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

/// Append-only payload encoder (little-endian throughout).
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Writer {
        Writer::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Cursor over a received payload; every read is bounds-checked into a
/// typed [`WireError`].
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let have = self.remaining();
        if have < n {
            return Err(WireError::Truncated { needed: n, have });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::Malformed(format!("bool byte {other}"))),
        }
    }

    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// A length-prefixed count that more bytes must follow for: bounded by
    /// the remaining payload so a hostile length cannot drive a huge
    /// allocation before the truncation is noticed.
    pub fn count(&mut self, bytes_per_item: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        let needed = n.saturating_mul(bytes_per_item.max(1));
        let have = self.remaining();
        if needed > have {
            return Err(WireError::Truncated { needed, have });
        }
        Ok(n)
    }

    pub fn str(&mut self) -> Result<String, WireError> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Malformed("string is not UTF-8".into()))
    }

    /// Assert the payload is fully consumed (decoders call this last, so a
    /// frame with junk glued on fails instead of silently parsing).
    pub fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                extra: self.buf.len() - self.pos,
            })
        }
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Serialize one frame (prelude + payload) into a byte vector — the form
/// an event loop appends to a connection's write buffer.
pub fn frame_bytes(opcode: u8, request_id: u64, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(PRELUDE_BYTES + payload.len());
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.push(opcode);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&request_id.to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Write one frame (header + request id + payload) and flush.
pub fn write_frame(
    w: &mut impl Write,
    opcode: u8,
    request_id: u64,
    payload: &[u8],
) -> Result<(), WireError> {
    w.write_all(&frame_bytes(opcode, request_id, payload))?;
    w.flush()?;
    Ok(())
}

/// Parse a frame header, validating magic, version and the payload bound.
pub fn parse_header(
    header: &[u8; HEADER_BYTES],
    max_payload: u64,
) -> Result<(u8, usize), WireError> {
    let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(header[4..6].try_into().unwrap());
    if version != VERSION {
        return Err(WireError::UnsupportedVersion {
            got: version,
            want: VERSION,
        });
    }
    let opcode = header[6];
    let len = u32::from_le_bytes(header[7..11].try_into().unwrap()) as u64;
    if len > max_payload {
        return Err(WireError::TooLarge {
            len,
            max: max_payload,
        });
    }
    Ok((opcode, len as usize))
}

/// Read one frame: `(opcode, request_id, payload)`. A clean EOF before the
/// first header byte is [`WireError::ConnectionClosed`].
pub fn read_frame(r: &mut impl Read, max_payload: u64) -> Result<(u8, u64, Vec<u8>), WireError> {
    let mut header = [0u8; HEADER_BYTES];
    r.read_exact(&mut header)?;
    let (opcode, len) = parse_header(&header, max_payload)?;
    let mut id = [0u8; 8];
    r.read_exact(&mut id)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok((opcode, u64::from_le_bytes(id), payload))
}

// ---------------------------------------------------------------------------
// The render request
// ---------------------------------------------------------------------------

/// How a request names its volume. Procedural datasets travel as a name +
/// resolution (the receiving side regenerates them bit-identically from the
/// shared seed); small in-memory volumes ship their voxels.
#[derive(Debug, Clone, PartialEq)]
pub enum VolumeSpec {
    Dataset {
        dataset: Dataset,
        base: u32,
    },
    InMemory {
        name: String,
        dims: [u32; 3],
        voxels: Vec<f32>,
    },
}

/// Largest in-memory volume a request may ship: 8 Mi voxels (32 MiB of
/// `f32`) stays comfortably under [`DEFAULT_MAX_PAYLOAD`] with the rest of
/// the request around it.
pub const MAX_SHIPPED_VOXELS: u64 = 8 << 20;

impl VolumeSpec {
    /// Describe an in-process [`Volume`] for the wire: a named procedural
    /// dataset travels by `(name, base)` (the receiver regenerates it
    /// bit-identically from the shared seed), anything else ships its exact
    /// voxels — up to [`MAX_SHIPPED_VOXELS`]. Returns a human-readable
    /// reason when the volume cannot cross the wire.
    pub fn of(volume: &Volume) -> Result<VolumeSpec, String> {
        if let Some(dataset) = Dataset::from_name(&volume.meta.name) {
            let base = volume.meta.dims[0];
            // Regenerate and compare the full metadata (content fingerprint
            // included): only a volume that IS the named dataset at this
            // resolution may travel by name.
            if base > 0 && dataset.volume(base).meta == volume.meta {
                return Ok(VolumeSpec::Dataset { dataset, base });
            }
        }
        if volume.meta.voxel_count() <= MAX_SHIPPED_VOXELS {
            // Materialized voxels read back the exact f32 values the local
            // renderer would sample, so the shipped copy renders
            // bit-identically even for procedural sources.
            return Ok(VolumeSpec::InMemory {
                name: volume.meta.name.clone(),
                dims: volume.meta.dims,
                voxels: volume.materialize_full(),
            });
        }
        Err(format!(
            "volume {} is not a named dataset and too large to ship \
             ({} voxels, wire limit {MAX_SHIPPED_VOXELS})",
            volume.meta.label(),
            volume.meta.voxel_count()
        ))
    }

    /// Resolve to an actual [`Volume`] on the receiving side.
    pub fn to_volume(&self) -> Result<Volume, WireError> {
        match self {
            VolumeSpec::Dataset { dataset, base } => {
                if *base == 0 {
                    return Err(WireError::Malformed("dataset base resolution 0".into()));
                }
                Ok(dataset.volume(*base))
            }
            VolumeSpec::InMemory { name, dims, voxels } => {
                let count = dims[0] as u64 * dims[1] as u64 * dims[2] as u64;
                if count == 0 || count != voxels.len() as u64 {
                    return Err(WireError::Malformed(format!(
                        "in-memory volume {name:?}: {} voxels for dims {dims:?}",
                        voxels.len()
                    )));
                }
                Ok(Volume::in_memory(name.clone(), *dims, voxels.clone()))
            }
        }
    }
}

/// How a request names its transfer function: a built-in preset by name, or
/// explicit control points for custom functions.
#[derive(Debug, Clone, PartialEq)]
pub enum TransferSpec {
    Preset(String),
    Points(Vec<ControlPoint>),
}

impl TransferSpec {
    /// Encode an in-process [`TransferFunction`]: by name when it *is* the
    /// preset of that name, by points otherwise.
    pub fn of(tf: &TransferFunction) -> TransferSpec {
        match TransferFunction::preset(tf.name()) {
            Some(preset) if preset == *tf => TransferSpec::Preset(tf.name().to_string()),
            _ => TransferSpec::Points(tf.points().to_vec()),
        }
    }

    pub fn to_transfer(&self) -> Result<TransferFunction, WireError> {
        match self {
            TransferSpec::Preset(name) => TransferFunction::preset(name)
                .ok_or_else(|| WireError::Malformed(format!("unknown transfer preset {name:?}"))),
            TransferSpec::Points(points) => {
                if points.is_empty() {
                    return Err(WireError::Malformed(
                        "transfer function with no points".into(),
                    ));
                }
                Ok(TransferFunction::from_points("wire", points.clone()))
            }
        }
    }
}

/// How a request names its camera: compact orbit parameters (see
/// [`Scene::orbit`]) for the common case, or the raw camera basis for
/// arbitrary scenes — the latter reconstructs bit-identically via
/// [`mgpu_volren::camera::Camera::from_raw_parts`], which is what lets any
/// in-process [`mgpu_serve::SceneRequest`] cross the wire unchanged.
#[derive(Debug, Clone, PartialEq)]
pub enum CameraSpec {
    Orbit {
        azimuth_deg: f32,
        elevation_deg: f32,
    },
    Look {
        eye: [f32; 3],
        forward: [f32; 3],
        right: [f32; 3],
        up: [f32; 3],
        tan_half_fov: f32,
    },
}

impl CameraSpec {
    /// Describe an in-process camera exactly (always the `Look` form).
    pub fn of(camera: &mgpu_volren::camera::Camera) -> CameraSpec {
        let (eye, forward, right, up, tan_half_fov) = camera.raw_parts();
        CameraSpec::Look {
            eye,
            forward,
            right,
            up,
            tan_half_fov,
        }
    }

    /// Build the scene's camera on the receiving side.
    fn to_camera(&self, volume: &Volume) -> mgpu_volren::camera::Camera {
        match *self {
            // Delegate to the one orbit implementation so wire and local
            // callers can never drift apart.
            CameraSpec::Orbit {
                azimuth_deg,
                elevation_deg,
            } => Scene::orbit(volume, azimuth_deg, elevation_deg, TransferFunction::bone()).camera,
            CameraSpec::Look {
                eye,
                forward,
                right,
                up,
                tan_half_fov,
            } => mgpu_volren::camera::Camera::from_raw_parts(eye, forward, right, up, tan_half_fov),
        }
    }
}

/// A self-contained frame request as it travels over the wire: enough to
/// reconstruct the exact `(ClusterSpec, Volume, Scene, RenderConfig)` of a
/// direct [`mgpu_volren::renderer::render`] call on the server — by
/// construction, the served pixels are bit-identical to a local render.
#[derive(Debug, Clone, PartialEq)]
pub struct NetSceneRequest {
    /// GPUs of the modeled accelerator cluster.
    pub gpus: u32,
    pub gpus_per_node: u32,
    pub volume: VolumeSpec,
    pub camera: CameraSpec,
    pub transfer: TransferSpec,
    pub background: [f32; 4],
    pub config: RenderConfig,
    pub priority: Priority,
}

impl NetSceneRequest {
    /// Orbit a procedural dataset (the common case).
    pub fn orbit_dataset(
        dataset: Dataset,
        base: u32,
        gpus: u32,
        azimuth_deg: f32,
        elevation_deg: f32,
        transfer: &TransferFunction,
    ) -> NetSceneRequest {
        NetSceneRequest {
            gpus,
            gpus_per_node: 4,
            volume: VolumeSpec::Dataset { dataset, base },
            camera: CameraSpec::Orbit {
                azimuth_deg,
                elevation_deg,
            },
            transfer: TransferSpec::of(transfer),
            background: [0.0; 4],
            config: RenderConfig::default(),
            priority: Priority::Normal,
        }
    }

    /// Describe an arbitrary in-process [`mgpu_serve::SceneRequest`] for
    /// the wire — the bridge every remote [`mgpu_serve::RenderBackend`]
    /// uses. Fails (with a human-readable reason) only when the request is
    /// genuinely not portable: a cluster that is not the paper's
    /// accelerator-cluster model, or a volume too large to ship (see
    /// [`VolumeSpec::of`]). Everything that can cross, crosses bit-exactly:
    /// camera basis, transfer points, background, full render config.
    pub fn from_request(request: &mgpu_serve::SceneRequest) -> Result<NetSceneRequest, String> {
        let spec = &request.spec;
        let candidate = ClusterSpec::accelerator_cluster(spec.gpus.max(1))
            .with_gpus_per_node(spec.gpus_per_node.max(1));
        if *spec != candidate {
            return Err(format!(
                "cluster spec is not the accelerator-cluster model \
                 (custom device/network/disk parameters cannot cross the wire): {spec:?}"
            ));
        }
        Ok(NetSceneRequest {
            gpus: spec.gpus,
            gpus_per_node: spec.gpus_per_node,
            volume: VolumeSpec::of(&request.volume)?,
            camera: CameraSpec::of(&request.scene.camera),
            transfer: TransferSpec::of(&request.scene.transfer),
            background: request.scene.background,
            config: request.config.clone(),
            priority: request.priority,
        })
    }

    pub fn with_config(mut self, config: RenderConfig) -> NetSceneRequest {
        self.config = config;
        self
    }

    pub fn with_priority(mut self, priority: Priority) -> NetSceneRequest {
        self.priority = priority;
        self
    }

    pub fn with_background(mut self, background: [f32; 4]) -> NetSceneRequest {
        self.background = background;
        self
    }

    /// Re-aim an orbit camera's azimuth (the elevation is kept); a `Look`
    /// camera is replaced by an orbit at elevation 0.
    pub fn with_azimuth(mut self, azimuth_deg: f32) -> NetSceneRequest {
        let elevation_deg = match self.camera {
            CameraSpec::Orbit { elevation_deg, .. } => elevation_deg,
            CameraSpec::Look { .. } => 0.0,
        };
        self.camera = CameraSpec::Orbit {
            azimuth_deg,
            elevation_deg,
        };
        self
    }

    /// Reconstruct the direct-render inputs on the receiving side.
    pub fn to_parts(
        &self,
    ) -> Result<(ClusterSpec, Volume, Scene, RenderConfig, Priority), WireError> {
        if self.gpus == 0 || self.gpus_per_node == 0 {
            return Err(WireError::Malformed(format!(
                "cluster of {} GPUs, {} per node",
                self.gpus, self.gpus_per_node
            )));
        }
        let spec =
            ClusterSpec::accelerator_cluster(self.gpus).with_gpus_per_node(self.gpus_per_node);
        let volume = self.volume.to_volume()?;
        let transfer = self.transfer.to_transfer()?;
        let scene = Scene {
            camera: self.camera.to_camera(&volume),
            transfer,
            background: self.background,
        };
        Ok((spec, volume, scene, self.config.clone(), self.priority))
    }
}

// ---------------------------------------------------------------------------
// Payload encodings
// ---------------------------------------------------------------------------

fn put_priority(w: &mut Writer, p: Priority) {
    w.u8(p.index() as u8);
}

fn get_priority(r: &mut Reader) -> Result<Priority, WireError> {
    match r.u8()? {
        0 => Ok(Priority::Batch),
        1 => Ok(Priority::Normal),
        2 => Ok(Priority::Interactive),
        other => Err(WireError::Malformed(format!("priority tag {other}"))),
    }
}

/// A duration as whole nanoseconds, saturating at `u64::MAX`.
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
fn put_config(w: &mut Writer, cfg: &RenderConfig) {
    w.u32(cfg.image.0);
    w.u32(cfg.image.1);
    w.f32(cfg.step_voxels);
    w.f32(cfg.early_term);
    w.u32(cfg.bricks_per_gpu);
    w.u64(cfg.max_brick_voxels);
    w.u8(match cfg.residency {
        Residency::Auto => 0,
        Residency::HostResident => 1,
        Residency::Disk => 2,
    });
    w.u64(cfg.host_cache_bytes);
    w.u64(cfg.batch_bytes as u64);
    match cfg.partition {
        PartitionStrategy::RoundRobin => {
            w.u8(0);
            w.u32(0);
        }
        PartitionStrategy::Striped { rows_per_stripe } => {
            w.u8(1);
            w.u32(rows_per_stripe);
        }
        PartitionStrategy::Tiled { tile } => {
            w.u8(2);
            w.u32(tile);
        }
        PartitionStrategy::Checkerboard { cell } => {
            w.u8(3);
            w.u32(cell);
        }
    }
    w.u8(match cfg.compositor {
        Compositor::DirectSend => 0,
        Compositor::BinarySwap => 1,
    });
    match cfg.assignment {
        Assignment::RoundRobin => {
            w.u8(0);
            w.u32(0);
        }
        Assignment::Blocked => {
            w.u8(1);
            w.u32(0);
        }
        Assignment::Strided { stride } => {
            w.u8(2);
            w.u32(stride);
        }
    }
    w.bool(cfg.combiner);
    w.bool(cfg.trace.async_upload);
    w.bool(cfg.trace.reduce_on_gpu);
    w.u64(cfg.kernel_parallelism as u64);
}

fn get_config(r: &mut Reader) -> Result<RenderConfig, WireError> {
    let image = (r.u32()?, r.u32()?);
    let step_voxels = r.f32()?;
    let early_term = r.f32()?;
    let bricks_per_gpu = r.u32()?;
    let max_brick_voxels = r.u64()?;
    let residency = match r.u8()? {
        0 => Residency::Auto,
        1 => Residency::HostResident,
        2 => Residency::Disk,
        other => return Err(WireError::Malformed(format!("residency tag {other}"))),
    };
    let host_cache_bytes = r.u64()?;
    let batch_bytes = r.u64()? as usize;
    let (ptag, pparam) = (r.u8()?, r.u32()?);
    let partition = match ptag {
        0 => PartitionStrategy::RoundRobin,
        1 => PartitionStrategy::Striped {
            rows_per_stripe: pparam,
        },
        2 => PartitionStrategy::Tiled { tile: pparam },
        3 => PartitionStrategy::Checkerboard { cell: pparam },
        other => return Err(WireError::Malformed(format!("partition tag {other}"))),
    };
    let compositor = match r.u8()? {
        0 => Compositor::DirectSend,
        1 => Compositor::BinarySwap,
        other => return Err(WireError::Malformed(format!("compositor tag {other}"))),
    };
    let (atag, aparam) = (r.u8()?, r.u32()?);
    let assignment = match atag {
        0 => Assignment::RoundRobin,
        1 => Assignment::Blocked,
        2 => Assignment::Strided { stride: aparam },
        other => return Err(WireError::Malformed(format!("assignment tag {other}"))),
    };
    let combiner = r.bool()?;
    let trace = TraceOptions {
        async_upload: r.bool()?,
        reduce_on_gpu: r.bool()?,
    };
    let kernel_parallelism = r.u64()? as usize;
    Ok(RenderConfig {
        image,
        step_voxels,
        early_term,
        bricks_per_gpu,
        max_brick_voxels,
        residency,
        host_cache_bytes,
        batch_bytes,
        partition,
        compositor,
        assignment,
        combiner,
        trace,
        kernel_parallelism,
    })
}

/// Encode a render request payload: the whole `RENDER`/`SUBMIT` payload,
/// and the tail of `PREWARM`'s.
pub fn encode_request(req: &NetSceneRequest) -> Vec<u8> {
    let mut w = Writer::new();
    put_request(&mut w, req);
    w.into_bytes()
}

/// Decode a render request payload; consumes the whole payload.
pub fn decode_request(payload: &[u8]) -> Result<NetSceneRequest, WireError> {
    let mut r = Reader::new(payload);
    let request = get_request(&mut r)?;
    r.finish()?;
    Ok(request)
}

fn put_request(w: &mut Writer, req: &NetSceneRequest) {
    w.u32(req.gpus);
    w.u32(req.gpus_per_node);
    match &req.volume {
        VolumeSpec::Dataset { dataset, base } => {
            w.u8(0);
            w.str(dataset.name());
            w.u32(*base);
        }
        VolumeSpec::InMemory { name, dims, voxels } => {
            w.u8(1);
            w.str(name);
            for d in dims {
                w.u32(*d);
            }
            w.u32(voxels.len() as u32);
            for v in voxels {
                w.f32(*v);
            }
        }
    }
    match &req.camera {
        CameraSpec::Orbit {
            azimuth_deg,
            elevation_deg,
        } => {
            w.u8(0);
            w.f32(*azimuth_deg);
            w.f32(*elevation_deg);
        }
        CameraSpec::Look {
            eye,
            forward,
            right,
            up,
            tan_half_fov,
        } => {
            w.u8(1);
            for axis in [eye, forward, right, up] {
                for c in axis {
                    w.f32(*c);
                }
            }
            w.f32(*tan_half_fov);
        }
    }
    match &req.transfer {
        TransferSpec::Preset(name) => {
            w.u8(0);
            w.str(name);
        }
        TransferSpec::Points(points) => {
            w.u8(1);
            w.u32(points.len() as u32);
            for p in points {
                w.f32(p.value);
                for c in p.rgba {
                    w.f32(c);
                }
            }
        }
    }
    for c in req.background {
        w.f32(c);
    }
    put_config(w, &req.config);
    put_priority(w, req.priority);
}

fn get_request(r: &mut Reader) -> Result<NetSceneRequest, WireError> {
    let gpus = r.u32()?;
    let gpus_per_node = r.u32()?;
    let volume = match r.u8()? {
        0 => {
            let name = r.str()?;
            let base = r.u32()?;
            let dataset = Dataset::from_name(&name)
                .ok_or_else(|| WireError::Malformed(format!("unknown dataset {name:?}")))?;
            VolumeSpec::Dataset { dataset, base }
        }
        1 => {
            let name = r.str()?;
            let dims = [r.u32()?, r.u32()?, r.u32()?];
            let n = r.count(4)?;
            let mut voxels = Vec::with_capacity(n);
            for _ in 0..n {
                voxels.push(r.f32()?);
            }
            VolumeSpec::InMemory { name, dims, voxels }
        }
        other => return Err(WireError::Malformed(format!("volume tag {other}"))),
    };
    let camera = match r.u8()? {
        0 => CameraSpec::Orbit {
            azimuth_deg: r.f32()?,
            elevation_deg: r.f32()?,
        },
        1 => {
            let mut vec3 = || -> Result<[f32; 3], WireError> { Ok([r.f32()?, r.f32()?, r.f32()?]) };
            CameraSpec::Look {
                eye: vec3()?,
                forward: vec3()?,
                right: vec3()?,
                up: vec3()?,
                tan_half_fov: r.f32()?,
            }
        }
        other => return Err(WireError::Malformed(format!("camera tag {other}"))),
    };
    let transfer = match r.u8()? {
        0 => TransferSpec::Preset(r.str()?),
        1 => {
            let n = r.count(20)?;
            let mut points = Vec::with_capacity(n);
            for _ in 0..n {
                let value = r.f32()?;
                let rgba = [r.f32()?, r.f32()?, r.f32()?, r.f32()?];
                points.push(ControlPoint { value, rgba });
            }
            TransferSpec::Points(points)
        }
        other => return Err(WireError::Malformed(format!("transfer tag {other}"))),
    };
    let background = [r.f32()?, r.f32()?, r.f32()?, r.f32()?];
    let config = get_config(r)?;
    let priority = get_priority(r)?;
    Ok(NetSceneRequest {
        gpus,
        gpus_per_node,
        volume,
        camera,
        transfer,
        background,
        config,
        priority,
    })
}

/// A rendered frame as delivered across the socket: the exact image a
/// direct render would produce (floats travel by bit pattern), plus the
/// cache provenance and the simulated frame time of the modeled cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct NetFrame {
    pub image: Image,
    /// Served from the server's frame cache (no render ran for this
    /// request).
    pub from_cache: bool,
    /// Simulated (DES) frame time on the modeled cluster — zero for cache
    /// hits, which re-deliver a previously rendered frame.
    pub sim_frame: Duration,
}

/// The `FRAME` payload: flags + sim time + dimensions + raw RGBA rows.
pub fn encode_frame(image: &Image, from_cache: bool, sim_nanos: u64) -> Vec<u8> {
    let mut w = Writer::new();
    put_frame(&mut w, image, from_cache, sim_nanos);
    w.into_bytes()
}

/// Decode a `FRAME` payload; consumes the whole payload.
pub fn decode_frame(payload: &[u8]) -> Result<NetFrame, WireError> {
    let mut r = Reader::new(payload);
    let from_cache = r.bool()?;
    let sim_nanos = r.u64()?;
    let width = r.u32()?;
    let height = r.u32()?;
    let count = (width as u64).checked_mul(height as u64).ok_or_else(|| {
        WireError::Malformed(format!("image dimensions {width}x{height} overflow"))
    })?;
    // Pixel data is implied by the dimensions; verify before allocating.
    let have = r.remaining();
    let needed = count
        .checked_mul(16)
        .filter(|n| *n <= usize::MAX as u64)
        .ok_or_else(|| WireError::Malformed(format!("{count} pixels overflow")))?
        as usize;
    if needed > have {
        return Err(WireError::Malformed(format!(
            "{width}x{height} frame needs {needed} pixel bytes, payload has {have}"
        )));
    }
    let mut pixels = Vec::with_capacity(count as usize);
    for _ in 0..count {
        pixels.push([r.f32()?, r.f32()?, r.f32()?, r.f32()?]);
    }
    r.finish()?;
    Ok(NetFrame {
        image: Image::from_pixels(width, height, pixels),
        from_cache,
        sim_frame: Duration::from_nanos(sim_nanos),
    })
}

fn put_frame(w: &mut Writer, image: &Image, from_cache: bool, sim_nanos: u64) {
    w.bool(from_cache);
    w.u64(sim_nanos);
    w.u32(image.width());
    w.u32(image.height());
    for px in image.pixels() {
        for c in px {
            w.f32(*c);
        }
    }
}

/// The completed traces of `TRACES_REPLY`, newest first. Each trace is its
/// wire `request_id`-seeded trace id plus the named stage spans as
/// nanosecond offsets from the trace's start.
fn put_traces(w: &mut Writer, traces: &[CompletedTrace]) {
    w.u32(traces.len() as u32);
    for trace in traces {
        w.u64(trace.id);
        w.u32(trace.spans.len() as u32);
        for span in &trace.spans {
            w.str(&span.name);
            w.u64(span.start_ns);
            w.u64(span.end_ns);
        }
    }
}

fn get_traces(r: &mut Reader) -> Result<Vec<CompletedTrace>, WireError> {
    // A trace is at least an id and a span count; a span at least a name
    // length and two offsets.
    let count = r.count(8 + 4)?;
    let mut traces = Vec::with_capacity(count);
    for _ in 0..count {
        let id = r.u64()?;
        let spans_len = r.count(4 + 8 + 8)?;
        let mut spans = Vec::with_capacity(spans_len);
        for _ in 0..spans_len {
            let name = r.str()?;
            let start_ns = r.u64()?;
            let end_ns = r.u64()?;
            if end_ns < start_ns {
                return Err(WireError::Malformed(format!(
                    "span {name:?} ends ({end_ns}) before it starts ({start_ns})"
                )));
            }
            spans.push(SpanRecord {
                name,
                start_ns,
                end_ns,
            });
        }
        traces.push(CompletedTrace { id, spans });
    }
    Ok(traces)
}

// ---------------------------------------------------------------------------
// Messages: the one place an opcode is paired with its payload
// ---------------------------------------------------------------------------

/// A draining server's answer to `DRAIN`/`RESUME`: its current mode, how
/// much it still owes, and the newest directory epoch it has been told —
/// what a drain controller polls until `outstanding` reaches zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainState {
    /// New `RENDER`/`SUBMIT` are being refused with `DRAINING`.
    pub draining: bool,
    /// In-flight renders + un-redeemed tickets + parked redeems, across
    /// every session on the server. Zero while draining means the server
    /// is about to say `GOODBYE`.
    pub outstanding: u64,
    /// Highest directory epoch any controller has announced to this
    /// server (echoed in STATS too): a client whose directory is older is
    /// stale.
    pub epoch: u64,
}

/// Every request a client can send: one variant per request opcode (see
/// [`opcode`] for what each asks). `Prewarm(epoch, request)` announces the
/// controller's epoch with the request whose plan to build. The render
/// requests borrow their [`NetSceneRequest`] when encoding (no copy of
/// shipped voxels) and own it once decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum Request<'a> {
    Ping { token: u64 },
    Render(Cow<'a, NetSceneRequest>),
    Submit(Cow<'a, NetSceneRequest>),
    Redeem { ticket: u64 },
    Stats,
    Traces { max: u32 },
    Drain { epoch: u64 },
    Resume { epoch: u64 },
    Prewarm(u64, Cow<'a, NetSceneRequest>),
}

impl Request<'_> {
    pub fn opcode(&self) -> u8 {
        match self {
            Request::Ping { .. } => opcode::PING,
            Request::Render(_) => opcode::RENDER,
            Request::Submit(_) => opcode::SUBMIT,
            Request::Redeem { .. } => opcode::REDEEM,
            Request::Stats => opcode::STATS,
            Request::Traces { .. } => opcode::TRACES,
            Request::Drain { .. } => opcode::DRAIN,
            Request::Resume { .. } => opcode::RESUME,
            Request::Prewarm(..) => opcode::PREWARM,
        }
    }

    /// The whole frame (prelude + payload) for `request_id`.
    pub fn encode(&self, request_id: u64) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Request::Ping { token } => w.u64(*token),
            Request::Render(request) | Request::Submit(request) => put_request(&mut w, request),
            Request::Redeem { ticket } => w.u64(*ticket),
            Request::Stats => {}
            Request::Traces { max } => w.u32(*max),
            Request::Drain { epoch } | Request::Resume { epoch } => w.u64(*epoch),
            Request::Prewarm(epoch, request) => {
                w.u64(*epoch);
                put_request(&mut w, request);
            }
        }
        frame_bytes(self.opcode(), request_id, &w.into_bytes())
    }

    /// Decode the payload of a request frame with opcode `op`; consumes
    /// the whole payload. A reply or unassigned opcode is
    /// [`WireError::UnknownOpcode`].
    pub fn decode(op: u8, payload: &[u8]) -> Result<Request<'static>, WireError> {
        let mut r = Reader::new(payload);
        let request = match op {
            opcode::PING => Request::Ping { token: r.u64()? },
            opcode::RENDER => Request::Render(Cow::Owned(get_request(&mut r)?)),
            opcode::SUBMIT => Request::Submit(Cow::Owned(get_request(&mut r)?)),
            opcode::REDEEM => Request::Redeem { ticket: r.u64()? },
            opcode::STATS => Request::Stats,
            opcode::TRACES => Request::Traces { max: r.u32()? },
            opcode::DRAIN => Request::Drain { epoch: r.u64()? },
            opcode::RESUME => Request::Resume { epoch: r.u64()? },
            opcode::PREWARM => Request::Prewarm(r.u64()?, Cow::Owned(get_request(&mut r)?)),
            other => return Err(WireError::UnknownOpcode(other)),
        };
        r.finish()?;
        Ok(request)
    }
}

/// Every reply a server can send: one variant per reply opcode (see
/// [`opcode`] for when each is sent). `Frame(image, from_cache, sim_frame)`
/// is a [`NetFrame`] whose image the server borrows when encoding (no pixel
/// copy) and the client owns once decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply<'a> {
    Pong { token: u64, shards: u32 },
    Frame(Cow<'a, Image>, bool, Duration),
    Submitted { ticket: u64 },
    Rejected(AdmissionError),
    Throttled { retry_after: Duration },
    Failed(FrameError),
    StatsReport(Box<NetStats>),
    TicketsFull { outstanding: u64, limit: u64 },
    UnsupportedVersion { got: u16, want: u16 },
    Traces(Vec<CompletedTrace>),
    DrainState(DrainState),
    Prewarmed { shard: u32, built: bool },
    Goodbye,
    Draining { epoch: u64 },
    BadRequest { message: String },
}

impl Reply<'_> {
    pub fn opcode(&self) -> u8 {
        match self {
            Reply::Pong { .. } => opcode::PONG,
            Reply::Frame(..) => opcode::FRAME,
            Reply::Submitted { .. } => opcode::SUBMITTED,
            Reply::Rejected(_) => opcode::REJECTED,
            Reply::Throttled { .. } => opcode::THROTTLED,
            Reply::Failed(_) => opcode::FAILED,
            Reply::StatsReport(_) => opcode::STATS_REPORT,
            Reply::TicketsFull { .. } => opcode::TICKETS_FULL,
            Reply::UnsupportedVersion { .. } => opcode::UNSUPPORTED_VERSION,
            Reply::Traces(_) => opcode::TRACES_REPLY,
            Reply::DrainState(_) => opcode::DRAIN_STATE,
            Reply::Prewarmed { .. } => opcode::PREWARMED,
            Reply::Goodbye => opcode::GOODBYE,
            Reply::Draining { .. } => opcode::DRAINING,
            Reply::BadRequest { .. } => opcode::BAD_REQUEST,
        }
    }

    /// The whole frame (prelude + payload) for `request_id` (0 for the
    /// server's unsolicited frames).
    pub fn encode(&self, request_id: u64) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Reply::Pong { token, shards } => {
                w.u64(*token);
                w.u32(*shards);
            }
            Reply::Frame(image, from_cache, sim_frame) => {
                put_frame(&mut w, image, *from_cache, nanos(*sim_frame))
            }
            Reply::Submitted { ticket } => w.u64(*ticket),
            Reply::Rejected(err) => {
                put_priority(&mut w, err.priority);
                w.u64(err.queued as u64);
                w.u64(err.limit as u64);
            }
            Reply::Throttled { retry_after } => w.u64(nanos(*retry_after)),
            Reply::Failed(err) => w.str(err.message()),
            Reply::StatsReport(stats) => put_stats(&mut w, stats),
            Reply::TicketsFull { outstanding, limit } => {
                w.u64(*outstanding);
                w.u64(*limit);
            }
            Reply::UnsupportedVersion { got, want } => {
                w.u16(*got);
                w.u16(*want);
            }
            Reply::Traces(traces) => put_traces(&mut w, traces),
            Reply::DrainState(state) => {
                w.bool(state.draining);
                w.u64(state.outstanding);
                w.u64(state.epoch);
            }
            Reply::Prewarmed { shard, built } => {
                w.u32(*shard);
                w.bool(*built);
            }
            Reply::Goodbye => {}
            Reply::Draining { epoch } => w.u64(*epoch),
            Reply::BadRequest { message } => w.str(message),
        }
        frame_bytes(self.opcode(), request_id, &w.into_bytes())
    }

    /// Decode the payload of a reply frame with opcode `op`; consumes the
    /// whole payload. A request or unassigned opcode is
    /// [`WireError::UnknownOpcode`].
    pub fn decode(op: u8, payload: &[u8]) -> Result<Reply<'static>, WireError> {
        let mut r = Reader::new(payload);
        let reply = match op {
            opcode::PONG => Reply::Pong {
                token: r.u64()?,
                shards: r.u32()?,
            },
            opcode::FRAME => {
                // The pixel loop runs over a reader of its own: measurably
                // faster than through `&mut r`.
                let frame = decode_frame(payload)?;
                let image = Cow::Owned(frame.image);
                return Ok(Reply::Frame(image, frame.from_cache, frame.sim_frame));
            }
            opcode::SUBMITTED => Reply::Submitted { ticket: r.u64()? },
            opcode::REJECTED => Reply::Rejected(AdmissionError {
                priority: get_priority(&mut r)?,
                queued: r.u64()? as usize,
                limit: r.u64()? as usize,
            }),
            opcode::THROTTLED => Reply::Throttled {
                retry_after: Duration::from_nanos(r.u64()?),
            },
            opcode::FAILED => Reply::Failed(FrameError::new(r.str()?)),
            opcode::STATS_REPORT => Reply::StatsReport(Box::new(get_stats(&mut r)?)),
            opcode::TICKETS_FULL => Reply::TicketsFull {
                outstanding: r.u64()?,
                limit: r.u64()?,
            },
            opcode::UNSUPPORTED_VERSION => Reply::UnsupportedVersion {
                got: r.u16()?,
                want: r.u16()?,
            },
            opcode::TRACES_REPLY => Reply::Traces(get_traces(&mut r)?),
            opcode::DRAIN_STATE => Reply::DrainState(DrainState {
                draining: r.bool()?,
                outstanding: r.u64()?,
                epoch: r.u64()?,
            }),
            opcode::PREWARMED => Reply::Prewarmed {
                shard: r.u32()?,
                built: r.bool()?,
            },
            opcode::GOODBYE => Reply::Goodbye,
            opcode::DRAINING => Reply::Draining { epoch: r.u64()? },
            opcode::BAD_REQUEST => Reply::BadRequest { message: r.str()? },
            other => return Err(WireError::UnknownOpcode(other)),
        };
        r.finish()?;
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Debug;

    fn roundtrip_request(req: &NetSceneRequest) -> NetSceneRequest {
        decode_request(&encode_request(req)).expect("round-trip")
    }

    fn sample_request() -> NetSceneRequest {
        NetSceneRequest::orbit_dataset(Dataset::Skull, 16, 2, 33.0, 20.0, &TransferFunction::bone())
            .with_config(RenderConfig::test_size(24))
    }

    /// The request id every golden frame carries.
    const GOLDEN_ID: u64 = 0x0102_0304_0506_0708;

    fn sample_image() -> Image {
        let mut image = Image::new(2, 1);
        image.set_linear(0, [0.1, 0.5, 0.999, 1.0]);
        image.set_linear(1, [0.0, 0.25, 1.0, 0.5]);
        image
    }

    fn sample_stats() -> NetStats {
        let mut obs = mgpu_obs::Snapshot::new();
        obs.add_counter(mgpu_obs::names::NET_FRAMES_IN, 24);
        obs.add_gauge(mgpu_obs::names::NET_CONNECTIONS, -1);
        let mut shard = mgpu_obs::Snapshot::new();
        shard.add_counter(mgpu_obs::names::SERVE_FRAMES_COMPLETED, 3);
        let report = mgpu_serve::ServiceReport::from_snapshot(shard, Duration::from_millis(1500));
        NetStats::new(7, obs, vec![report])
    }

    fn sample_traces() -> Vec<CompletedTrace> {
        let span = |name: &str, start_ns, end_ns| SpanRecord {
            name: name.into(),
            start_ns,
            end_ns,
        };
        vec![
            CompletedTrace {
                id: 7,
                spans: vec![span("queue", 10, 20), span("render", 20, 90)],
            },
            CompletedTrace {
                id: u64::MAX,
                spans: vec![],
            },
        ]
    }

    /// Every request variant (some twice, to cover edge values), each with
    /// its frame for [`GOLDEN_ID`] as the per-payload encoders of wire v5
    /// wrote it before the enums replaced them.
    fn request_table() -> Vec<(Request<'static>, &'static str)> {
        let request = || Cow::Owned(sample_request());
        vec![
            (Request::Ping { token: 0x6D67_7075 }, "4d4750550500010800000008070605040302017570676d00000000"),
            (Request::Render(request()), "4d4750550500027c000000080706050403020102000000040000000005000000736b756c6c1000000000000004420000a0410004000000626f6e650000000000000000000000000000000018000000180000000000803f48e17a3f02000000000000010000000000000000800000000000400000000000000000000000000000000000000000000000000000000001"),
            (Request::Submit(request()), "4d4750550500037c000000080706050403020102000000040000000005000000736b756c6c1000000000000004420000a0410004000000626f6e650000000000000000000000000000000018000000180000000000803f48e17a3f02000000000000010000000000000000800000000000400000000000000000000000000000000000000000000000000000000001"),
            (Request::Redeem { ticket: 9 }, "4d4750550500040800000008070605040302010900000000000000"),
            (Request::Stats, "4d475055050005000000000807060504030201"),
            (Request::Traces { max: 32 }, "4d47505505000604000000080706050403020120000000"),
            (Request::Drain { epoch: 41 }, "4d4750550500070800000008070605040302012900000000000000"),
            (Request::Drain { epoch: 0 }, "4d4750550500070800000008070605040302010000000000000000"),
            (Request::Resume { epoch: u64::MAX }, "4d475055050008080000000807060504030201ffffffffffffffff"),
            (
                Request::Prewarm(17, request()),
                "4d475055050009840000000807060504030201110000000000000002000000040000000005000000736b756c6c1000000000000004420000a0410004000000626f6e650000000000000000000000000000000018000000180000000000803f48e17a3f02000000000000010000000000000000800000000000400000000000000000000000000000000000000000000000000000000001",
            ),
        ]
    }

    /// Every reply variant, like [`request_table`].
    fn reply_table() -> Vec<(Reply<'static>, &'static str)> {
        let frame = |from_cache, sim_nanos| {
            Reply::Frame(
                Cow::Owned(sample_image()),
                from_cache,
                Duration::from_nanos(sim_nanos),
            )
        };
        vec![
            (
                Reply::Pong {
                    token: 0x6D67_7075,
                    shards: 2,
                },
                "4d4750550500810c00000008070605040302017570676d0000000002000000",
            ),
            (frame(true, 123_456), "4d4750550500823100000008070605040302010140e20100000000000200000001000000cdcccc3d0000003f77be7f3f0000803f000000000000803e0000803f0000003f"),
            (frame(false, 0), "4d4750550500823100000008070605040302010000000000000000000200000001000000cdcccc3d0000003f77be7f3f0000803f000000000000803e0000803f0000003f"),
            (Reply::Submitted { ticket: 9 }, "4d4750550500830800000008070605040302010900000000000000"),
            (
                Reply::Rejected(AdmissionError {
                    priority: Priority::Batch,
                    queued: 9,
                    limit: 8,
                }),
                "4d4750550500841100000008070605040302010009000000000000000800000000000000",
            ),
            // usize::MAX (the unbounded sentinel) survives the u64 crossing
            // on 64-bit hosts.
            (
                Reply::Rejected(AdmissionError {
                    priority: Priority::Interactive,
                    queued: 3,
                    limit: usize::MAX,
                }),
                "4d475055050084110000000807060504030201020300000000000000ffffffffffffffff",
            ),
            (
                Reply::Throttled {
                    retry_after: Duration::from_millis(125),
                },
                "4d4750550500850800000008070605040302014059730700000000",
            ),
            (
                Reply::Failed(FrameError::new("render panicked: poison")),
                "4d4750550500861b00000008070605040302011700000072656e6465722070616e69636b65643a20706f69736f6e",
            ),
            (Reply::StatsReport(Box::new(sample_stats())), "4d4750550500878200000008070605040302010700000000000000010000000d0000006e65742e6672616d65735f696e1800000000000000010000000f0000006e65742e636f6e6e656374696f6e73ffffffffffffffff0000000001000000002f685900000000010000001600000073657276652e6672616d65735f636f6d706c6574656403000000000000000000000000000000"),
            (
                Reply::TicketsFull {
                    outstanding: 2,
                    limit: 2,
                },
                "4d47505505008810000000080706050403020102000000000000000200000000000000",
            ),
            (
                Reply::UnsupportedVersion {
                    got: 2,
                    want: VERSION,
                },
                "4d47505505008904000000080706050403020102000500",
            ),
            (
                Reply::UnsupportedVersion {
                    got: 0xEEEE,
                    want: VERSION,
                },
                "4d475055050089040000000807060504030201eeee0500",
            ),
            (Reply::Traces(sample_traces()), "4d47505505008a4f0000000807060504030201020000000700000000000000020000000500000071756575650a0000000000000014000000000000000600000072656e64657214000000000000005a00000000000000ffffffffffffffff00000000"),
            (
                Reply::DrainState(DrainState {
                    draining: true,
                    outstanding: 9,
                    epoch: 41,
                }),
                "4d47505505008b1100000008070605040302010109000000000000002900000000000000",
            ),
            (
                Reply::DrainState(DrainState {
                    draining: false,
                    outstanding: 0,
                    epoch: u64::MAX,
                }),
                "4d47505505008b110000000807060504030201000000000000000000ffffffffffffffff",
            ),
            (
                Reply::Prewarmed {
                    shard: 3,
                    built: true,
                },
                "4d47505505008c0500000008070605040302010300000001",
            ),
            (
                Reply::Prewarmed {
                    shard: 0,
                    built: false,
                },
                "4d47505505008c0500000008070605040302010000000000",
            ),
            (Reply::Goodbye, "4d47505505008d000000000807060504030201"),
            (Reply::Draining { epoch: 41 }, "4d47505505008e0800000008070605040302012900000000000000"),
            (
                Reply::BadRequest {
                    message: "duplicate request id 9".into(),
                },
                "4d4750550500ff1a0000000807060504030201160000006475706c696361746520726571756573742069642039",
            ),
        ]
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The four checks every message variant gets: its frame matches the
    /// golden bytes, the payload decodes back to the sample, every
    /// truncation of the payload is a typed error, and one appended byte is
    /// `TrailingBytes`.
    fn check_message<M: PartialEq + Debug>(
        sample: &M,
        frame: Vec<u8>,
        golden: &str,
        decode: fn(u8, &[u8]) -> Result<M, WireError>,
    ) {
        assert_eq!(hex(&frame), golden, "{sample:?}: wire bytes changed");
        let (op, id, mut payload) =
            read_frame(&mut frame.as_slice(), DEFAULT_MAX_PAYLOAD).expect("frame");
        assert_eq!(id, GOLDEN_ID);
        assert_eq!(decode(op, &payload).as_ref(), Ok(sample));
        for cut in 0..payload.len() {
            match decode(op, &payload[..cut]) {
                Err(WireError::Truncated { .. }) | Err(WireError::Malformed(_)) => {}
                other => panic!("{sample:?} cut to {cut} bytes: {other:?}"),
            }
        }
        payload.push(0xAB);
        assert_eq!(
            decode(op, &payload),
            Err(WireError::TrailingBytes { extra: 1 }),
            "{sample:?} with one byte appended"
        );
    }

    #[test]
    fn every_message_variant_keeps_its_bytes_and_decodes_strictly() {
        let requests = request_table();
        let replies = reply_table();
        for (sample, golden) in &requests {
            check_message(sample, sample.encode(GOLDEN_ID), golden, Request::decode);
        }
        for (sample, golden) in &replies {
            check_message(sample, sample.encode(GOLDEN_ID), golden, Reply::decode);
        }
        // The tables cover every opcode: nine requests, fifteen replies.
        let ops: std::collections::BTreeSet<u8> = requests
            .iter()
            .map(|(m, _)| m.opcode())
            .chain(replies.iter().map(|(m, _)| m.opcode()))
            .collect();
        let mut want: std::collections::BTreeSet<u8> = (0x01..=0x09).chain(0x81..=0x8E).collect();
        want.insert(opcode::BAD_REQUEST);
        assert_eq!(ops, want);
    }

    #[test]
    fn opcodes_of_the_other_direction_are_unknown() {
        assert_eq!(
            Request::decode(opcode::PONG, &[]),
            Err(WireError::UnknownOpcode(opcode::PONG))
        );
        assert_eq!(
            Reply::decode(opcode::PING, &[]),
            Err(WireError::UnknownOpcode(opcode::PING))
        );
        assert_eq!(
            Request::decode(0x7F, &[]),
            Err(WireError::UnknownOpcode(0x7F))
        );
    }

    #[test]
    fn header_validation() {
        let ping = Request::Ping { token: 7 };
        let mut buf = Vec::new();
        write_frame(&mut buf, opcode::PING, 42, &7u64.to_le_bytes()).unwrap();
        assert_eq!(buf, ping.encode(42));
        let (op, id, payload) = read_frame(&mut buf.as_slice(), DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(op, opcode::PING);
        assert_eq!(id, 42);
        assert_eq!(Request::decode(op, &payload), Ok(ping));

        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        match read_frame(&mut bad.as_slice(), DEFAULT_MAX_PAYLOAD) {
            Err(WireError::BadMagic(_)) => {}
            other => panic!("{other:?}"),
        }

        let mut bad = buf.clone();
        bad[4] = 0xEE; // version
        match read_frame(&mut bad.as_slice(), DEFAULT_MAX_PAYLOAD) {
            Err(WireError::UnsupportedVersion { want: VERSION, .. }) => {}
            other => panic!("{other:?}"),
        }

        // Declared length beyond the bound.
        let mut bad = buf.clone();
        bad[7..11].copy_from_slice(&u32::MAX.to_le_bytes());
        match read_frame(&mut bad.as_slice(), 1024) {
            Err(WireError::TooLarge { max: 1024, .. }) => {}
            other => panic!("{other:?}"),
        }

        // Empty stream = clean close; torn header = closed too.
        match read_frame(&mut (&[] as &[u8]), 1024) {
            Err(WireError::ConnectionClosed) => {}
            other => panic!("{other:?}"),
        }

        // A frame torn inside the request id is a close, not a panic.
        match read_frame(&mut (&buf[..HEADER_BYTES + 3]), 1024) {
            Err(WireError::ConnectionClosed) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn request_roundtrips_field_for_field() {
        let req = sample_request();
        let back = roundtrip_request(&req);
        assert_eq!(back, req);
        // The canonical identity the service uses is the Debug encoding of
        // the reconstructed parts — they must match exactly.
        let (spec, volume, scene, cfg, priority) = req.to_parts().unwrap();
        let (spec2, volume2, scene2, cfg2, priority2) = back.to_parts().unwrap();
        assert_eq!(format!("{spec:?}"), format!("{spec2:?}"));
        assert_eq!(volume.meta, volume2.meta);
        assert_eq!(format!("{scene:?}"), format!("{scene2:?}"));
        assert_eq!(format!("{cfg:?}"), format!("{cfg2:?}"));
        assert_eq!(priority, priority2);
    }

    #[test]
    fn request_roundtrips_every_enum_arm() {
        let mut req = sample_request();
        req.volume = VolumeSpec::InMemory {
            name: "twin".into(),
            dims: [2, 2, 2],
            voxels: vec![0.25; 8],
        };
        req.transfer = TransferSpec::Points(vec![
            ControlPoint {
                value: 0.0,
                rgba: [0.0; 4],
            },
            ControlPoint {
                value: 1.0,
                rgba: [1.0, 0.5, 0.25, 1.0],
            },
        ]);
        req.priority = Priority::Interactive;
        req.background = [0.1, 0.2, 0.3, 0.4];
        req.config.residency = Residency::Disk;
        req.config.partition = PartitionStrategy::Tiled { tile: 32 };
        req.config.compositor = Compositor::BinarySwap;
        req.config.assignment = Assignment::Blocked;
        req.config.combiner = true;
        req.config.trace.async_upload = true;
        assert_eq!(roundtrip_request(&req), req);

        req.config.partition = PartitionStrategy::Checkerboard { cell: 8 };
        req.config.residency = Residency::HostResident;
        req.priority = Priority::Batch;
        assert_eq!(roundtrip_request(&req), req);
    }

    #[test]
    fn custom_transfer_encodes_by_points_and_presets_by_name() {
        assert_eq!(
            TransferSpec::of(&TransferFunction::fire()),
            TransferSpec::Preset("fire".into())
        );
        let custom = TransferFunction::from_points(
            "wire",
            vec![ControlPoint {
                value: 0.5,
                rgba: [1.0; 4],
            }],
        );
        match TransferSpec::of(&custom) {
            TransferSpec::Points(p) => assert_eq!(p.len(), 1),
            other => panic!("custom must encode by points, got {other:?}"),
        }
    }

    #[test]
    fn every_truncation_of_a_valid_payload_is_a_typed_error() {
        let bytes = encode_request(&sample_request());
        for cut in 0..bytes.len() {
            match decode_request(&bytes[..cut]) {
                Err(WireError::Truncated { .. }) | Err(WireError::Malformed(_)) => {}
                Ok(_) => panic!("prefix of {cut} bytes decoded successfully"),
                Err(other) => panic!("prefix of {cut} bytes: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_request(&sample_request());
        bytes.push(0xAB);
        assert_eq!(
            decode_request(&bytes),
            Err(WireError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn request_id_roundtrips_verbatim() {
        for id in [0u64, 1, 8, u32::MAX as u64, u64::MAX - 1, u64::MAX] {
            let buf = frame_bytes(opcode::SUBMIT, id, b"xyz");
            let (op, got, payload) = read_frame(&mut buf.as_slice(), 1024).unwrap();
            assert_eq!(
                (op, got, payload.as_slice()),
                (opcode::SUBMIT, id, &b"xyz"[..])
            );
        }
    }

    #[test]
    fn frame_roundtrips_bit_exact() {
        let mut image = mgpu_volren::Image::new(3, 2);
        for (i, px) in (0..6).zip([0.1f32, 0.5, 0.999, 0.0, 1.0, 0.25]) {
            image.set_linear(i, [px, px * 0.5, 1.0 - px, 1.0]);
        }
        let frame = decode_frame(&encode_frame(&image, true, 123_456)).unwrap();
        assert_eq!(frame.image, image);
        assert!(frame.from_cache);
        assert_eq!(frame.sim_frame, Duration::from_nanos(123_456));

        // Dimension/pixel mismatch is malformed, not a panic.
        let mut bytes = encode_frame(&image, false, 0);
        bytes.truncate(bytes.len() - 4);
        assert!(matches!(decode_frame(&bytes), Err(WireError::Malformed(_))));
    }

    #[test]
    fn look_camera_roundtrips_bit_exact() {
        let mut req = sample_request();
        let camera = mgpu_volren::camera::Camera::look_at(
            mgpu_volren::math::vec3(9.0, -3.0, 4.5),
            mgpu_volren::math::vec3(8.0, 8.0, 8.0),
            mgpu_volren::math::vec3(0.0, 0.0, 1.0),
            33.0,
        );
        req.camera = CameraSpec::of(&camera);
        let back = roundtrip_request(&req);
        assert_eq!(back, req);
        let (_, volume, scene, _, _) = back.to_parts().unwrap();
        assert_eq!(scene.camera, camera);
        // And the reconstructed camera is bit-identical, not just PartialEq.
        let _ = volume;
        let (e1, f1, r1, u1, t1) = camera.raw_parts();
        let (e2, f2, r2, u2, t2) = scene.camera.raw_parts();
        for (a, b) in [(e1, e2), (f1, f2), (r1, r2), (u1, u2)] {
            for c in 0..3 {
                assert_eq!(a[c].to_bits(), b[c].to_bits());
            }
        }
        assert_eq!(t1.to_bits(), t2.to_bits());
    }

    #[test]
    fn from_request_describes_in_process_requests() {
        use mgpu_serve::{Priority, SceneRequest};

        let volume = Dataset::Supernova.volume(16);
        let spec = ClusterSpec::accelerator_cluster(3).with_gpus_per_node(2);
        let scene = Scene::orbit(&volume, 123.0, -8.0, TransferFunction::fire())
            .with_background([0.2, 0.1, 0.0, 1.0]);
        let request = SceneRequest {
            spec: spec.clone(),
            volume: volume.clone(),
            scene: scene.clone(),
            config: RenderConfig::test_size(16),
            priority: Priority::Interactive,
        };
        let net = NetSceneRequest::from_request(&request).expect("portable");
        assert_eq!(
            net.volume,
            VolumeSpec::Dataset {
                dataset: Dataset::Supernova,
                base: 16
            },
            "a named dataset travels by name, not by voxels"
        );
        let (spec2, volume2, scene2, cfg2, priority2) = roundtrip_request(&net).to_parts().unwrap();
        assert_eq!(spec2, spec);
        assert_eq!(volume2.meta, volume.meta);
        assert_eq!(scene2.camera, scene.camera);
        assert_eq!(scene2.background, scene.background);
        assert_eq!(format!("{cfg2:?}"), format!("{:?}", request.config));
        assert_eq!(priority2, Priority::Interactive);

        // A custom in-memory volume ships its exact voxels.
        let custom = Volume::in_memory("twist", [3, 3, 3], (0..27).map(|i| i as f32).collect());
        let shipped = SceneRequest {
            volume: custom.clone(),
            scene: Scene::orbit(&custom, 0.0, 0.0, TransferFunction::bone()),
            ..request.clone()
        };
        match NetSceneRequest::from_request(&shipped).unwrap().volume {
            VolumeSpec::InMemory { name, dims, voxels } => {
                assert_eq!((name.as_str(), dims), ("twist", [3, 3, 3]));
                assert_eq!(voxels.len(), 27);
            }
            other => panic!("expected shipped voxels, got {other:?}"),
        }

        // A non-standard cluster model is a typed refusal, not silence.
        let mut exotic = request.clone();
        exotic.spec.disk = mgpu_sim::LinkModel::new(1.0, 1.0);
        let err = NetSceneRequest::from_request(&exotic).expect_err("not portable");
        assert!(err.contains("accelerator-cluster"), "{err}");
    }

    #[test]
    fn bad_volume_specs_are_malformed() {
        let mismatched = VolumeSpec::InMemory {
            name: "broken".into(),
            dims: [2, 2, 2],
            voxels: vec![0.0; 7],
        };
        assert!(matches!(
            mismatched.to_volume(),
            Err(WireError::Malformed(_))
        ));
        let zero = VolumeSpec::Dataset {
            dataset: Dataset::Skull,
            base: 0,
        };
        assert!(matches!(zero.to_volume(), Err(WireError::Malformed(_))));
    }

    /// A span that ends before it starts is malformed, not accepted.
    #[test]
    fn backwards_trace_spans_are_malformed() {
        let mut backwards = sample_traces();
        backwards[0].spans[0].start_ns = 50;
        backwards[0].spans[0].end_ns = 40;
        let frame = Reply::Traces(backwards).encode(1);
        assert!(matches!(
            Reply::decode(opcode::TRACES_REPLY, &frame[PRELUDE_BYTES..]),
            Err(WireError::Malformed(_))
        ));
    }
}
