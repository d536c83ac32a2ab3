//! Federation identity and the RPC edge middleware (DESIGN.md §15).
//!
//! The distributed extension the paper sketches in §4 needs exactly one
//! new piece of protocol: when a request crosses a node boundary, the
//! caller's *end-to-end identity* — the root task key minted on the
//! originating node plus the hop path taken so far — must travel with it,
//! the way DAGOR piggybacks admission priority on every RPC. With that
//! identity in hand, a backend node's detector can blame the originating
//! root instead of an anonymous local task, and the cancellation can
//! propagate *upstream* toward the origin instead of shedding innocent
//! local load.
//!
//! Two pieces live here:
//!
//! - [`EdgeIdentity`]: the piggybacked identity itself, with an explicit
//!   wire frame ([`EdgeIdentity::encode`]/[`EdgeIdentity::decode`]) so
//!   the encoding is a checked contract — malformed frames are rejected
//!   loudly ([`FrameError`]), never guessed at;
//! - [`FedEdge`]: port middleware for the *callee* side of an edge. It
//!   implements [`RuntimePort`] over the callee node's port stack,
//!   consumes the identity bound for the next `create_cancel` (the frame
//!   round-trips the codec on every call), keeps the blame table from
//!   callee-local task keys back to edge identities, and splits delivered
//!   cancellations into a local leg (stop the proxy task) and an upstream
//!   leg (propagate toward the origin through a [`CancelInitiator`]).
//!
//! The edge is deliberately *in-process*: the federation crate composes
//! several runtimes over these edges on one clock, and the chaos suite
//! injects partition/delay/reorder faults into the upstream leg. Nothing
//! here assumes a network — only that identity crosses the boundary as
//! bytes.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::sync::{Arc, Weak};

use atropos::{ResourceId, ResourceType, TaskId, TaskKey, TickOutcome};
use atropos_sim::Clock;

use crate::port::{CancelInitiator, RuntimePort};

/// A federation node identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u16);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Key namespace for tasks created on behalf of a remote root: far above
/// both the live harness's culprit namespace (`1 << 40`) and far below the
/// runtime's auto-key namespace (`1 << 63`).
pub const FED_KEY_BASE: u64 = 1 << 56;

/// Frame magic: identifies an encoded [`EdgeIdentity`].
const FRAME_MAGIC: u32 = 0xA7F0_ED1E;

/// Longest hop path a frame may carry; longer paths indicate a routing
/// loop and are rejected.
pub const MAX_HOPS: usize = 32;

/// Why a wire frame was rejected. Every variant is a *loud* failure: the
/// edge counts it, and the federation invariant (I9) requires healthy
/// runs to carry zero rejected frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the fixed header.
    TooShort,
    /// Magic mismatch: not an identity frame at all.
    BadMagic,
    /// Hop count of zero (an identity always includes its origin).
    EmptyPath,
    /// Hop count above [`MAX_HOPS`].
    PathTooLong,
    /// Byte length disagrees with the declared hop count.
    Truncated,
    /// Checksum mismatch: the frame was corrupted in flight.
    BadChecksum,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FrameError::TooShort => "frame shorter than header",
            FrameError::BadMagic => "bad frame magic",
            FrameError::EmptyPath => "empty hop path",
            FrameError::PathTooLong => "hop path exceeds MAX_HOPS",
            FrameError::Truncated => "frame truncated against declared hop count",
            FrameError::BadChecksum => "frame checksum mismatch",
        };
        f.write_str(s)
    }
}

/// The end-to-end identity piggybacked on every cross-node request: the
/// root task key as minted on the originating node, plus the hop path
/// (origin first) the request has taken through the service graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EdgeIdentity {
    /// Root task key on the originating node.
    pub root_key: u64,
    /// Hop path, origin first; never empty.
    pub path: Vec<NodeId>,
}

/// FNV-1a over the frame body; cheap, deterministic, and plenty to catch
/// the chaos suite's bit-level corruption.
fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

impl EdgeIdentity {
    /// A fresh identity minted on `origin` for root `root_key`.
    pub fn local(origin: NodeId, root_key: u64) -> Self {
        Self {
            root_key,
            path: vec![origin],
        }
    }

    /// The identity after one more hop to `node`.
    pub fn hop(&self, node: NodeId) -> Self {
        let mut path = self.path.clone();
        path.push(node);
        Self {
            root_key: self.root_key,
            path,
        }
    }

    /// The originating node (first hop of the path).
    pub fn origin(&self) -> NodeId {
        self.path[0]
    }

    /// The key a callee node registers the proxy task under: the fed
    /// namespace bit, the origin node, and the low 48 bits of the root
    /// key. Unique per (origin, root) on any one node.
    pub fn remote_key(&self) -> u64 {
        FED_KEY_BASE | ((self.origin().0 as u64 & 0xFF) << 48) | (self.root_key & ((1 << 48) - 1))
    }

    /// Encodes the identity as a wire frame:
    /// `magic(4) | root_key(8) | hops(2) | hop(2)* | fnv1a(4)`,
    /// all little-endian, checksum over everything before it.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(18 + 2 * self.path.len());
        out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        out.extend_from_slice(&self.root_key.to_le_bytes());
        out.extend_from_slice(&(self.path.len() as u16).to_le_bytes());
        for hop in &self.path {
            out.extend_from_slice(&hop.0.to_le_bytes());
        }
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Decodes a wire frame, rejecting malformed input loudly.
    pub fn decode(bytes: &[u8]) -> Result<Self, FrameError> {
        if bytes.len() < 18 {
            return Err(FrameError::TooShort);
        }
        let magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
        if magic != FRAME_MAGIC {
            return Err(FrameError::BadMagic);
        }
        let root_key = u64::from_le_bytes(bytes[4..12].try_into().unwrap());
        let hops = u16::from_le_bytes(bytes[12..14].try_into().unwrap()) as usize;
        if hops == 0 {
            return Err(FrameError::EmptyPath);
        }
        if hops > MAX_HOPS {
            return Err(FrameError::PathTooLong);
        }
        let body_len = 14 + 2 * hops;
        if bytes.len() != body_len + 4 {
            return Err(FrameError::Truncated);
        }
        let declared = u32::from_le_bytes(bytes[body_len..body_len + 4].try_into().unwrap());
        if fnv1a(&bytes[..body_len]) != declared {
            return Err(FrameError::BadChecksum);
        }
        let path = (0..hops)
            .map(|i| {
                let off = 14 + 2 * i;
                NodeId(u16::from_le_bytes(bytes[off..off + 2].try_into().unwrap()))
            })
            .collect();
        Ok(Self { root_key, path })
    }
}

impl fmt::Display for EdgeIdentity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "root {} via ", self.root_key)?;
        for (i, hop) in self.path.iter().enumerate() {
            if i > 0 {
                write!(f, "→")?;
            }
            write!(f, "{hop}")?;
        }
        Ok(())
    }
}

/// Counters one edge accumulates (relaxed atomics; read after a run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeStats {
    /// Identity frames decoded and attached to a proxy task.
    pub frames_carried: u64,
    /// Frames rejected by the codec (must stay 0 in healthy runs).
    pub frames_rejected: u64,
    /// Cancellations forwarded upstream toward an origin node.
    pub upstream_cancels: u64,
    /// Cancellations delivered only to the local (callee) initiator.
    pub local_cancels: u64,
}

struct EdgeInner {
    /// Frame armed for the next `create_cancel`, already encoded: every
    /// carried identity round-trips the wire codec.
    pending: Option<Vec<u8>>,
    /// Callee-local key → identity of the remote root it proxies.
    blame: HashMap<u64, EdgeIdentity>,
    /// The callee application's own initiator.
    local: Option<Arc<dyn CancelInitiator>>,
    /// The cross-node cancel sink toward the origin (the caller installs
    /// it; chaos wraps it in edge faults).
    upstream: Option<Arc<dyn CancelInitiator>>,
}

/// The callee side of one RPC edge, as port middleware.
///
/// Stacking order on a backend node: app → `FedEdge` → (injector/probe) →
/// runtime. A caller arms an identity with [`FedEdge::bind`] (or uses
/// [`FedEdge::open`]); the very next `create_cancel` becomes the remote
/// root's *proxy task*, keyed in the [`FED_KEY_BASE`] namespace and
/// entered into the blame table. When the callee runtime cancels a proxy
/// key, the edge delivers locally **and** forwards the cancellation
/// upstream carrying the root identity — the reverse of the piggybacked
/// request leg.
pub struct FedEdge {
    /// The callee node this edge terminates at.
    node: NodeId,
    inner: Arc<dyn RuntimePort>,
    /// Self-reference so `install_initiator` can hand the inner port an
    /// owning splitter.
    me: Mutex<Weak<FedEdge>>,
    st: Mutex<EdgeInner>,
    frames_carried: AtomicU64,
    frames_rejected: AtomicU64,
    upstream_cancels: AtomicU64,
    local_cancels: AtomicU64,
}

impl FedEdge {
    /// An edge terminating at `node`, over the callee's port stack.
    pub fn over(node: NodeId, inner: Arc<dyn RuntimePort>) -> Arc<Self> {
        let edge = Arc::new(Self {
            node,
            inner,
            me: Mutex::new(Weak::new()),
            st: Mutex::new(EdgeInner {
                pending: None,
                blame: HashMap::new(),
                local: None,
                upstream: None,
            }),
            frames_carried: AtomicU64::new(0),
            frames_rejected: AtomicU64::new(0),
            upstream_cancels: AtomicU64::new(0),
            local_cancels: AtomicU64::new(0),
        });
        *edge.me.lock().unwrap() = Arc::downgrade(&edge);
        edge
    }

    /// The node this edge terminates at.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Arms `identity` (already hopped to this node by the caller) for
    /// the next `create_cancel`. The identity is carried as its encoded
    /// frame, so the codec is exercised on every single RPC.
    pub fn bind(&self, identity: &EdgeIdentity) {
        self.bind_frame(identity.encode());
    }

    /// Arms a raw — possibly corrupt — wire frame for the next
    /// `create_cancel`. This is the receive path a real transport would
    /// feed; chaos tests use it to drive the loud-rejection counter.
    pub fn bind_frame(&self, frame: Vec<u8>) {
        self.st.lock().unwrap().pending = Some(frame);
    }

    /// Convenience: bind `identity` and open the proxy task in one step.
    pub fn open(&self, identity: &EdgeIdentity) -> TaskId {
        self.bind(identity);
        self.create_cancel(None)
    }

    /// Installs the cross-node cancel sink toward the origin. Cancels of
    /// proxy keys are forwarded here with the *root key on the origin
    /// node* — this is where chaos edge faults interpose.
    pub fn install_upstream(&self, sink: Arc<dyn CancelInitiator>) {
        self.st.lock().unwrap().upstream = Some(sink);
    }

    /// The identity blamed for callee-local `key`, if the key proxies a
    /// remote root.
    pub fn blame_for(&self, key: u64) -> Option<EdgeIdentity> {
        self.st.lock().unwrap().blame.get(&key).cloned()
    }

    /// Counters so far.
    pub fn stats(&self) -> EdgeStats {
        EdgeStats {
            frames_carried: self.frames_carried.load(Ordering::Relaxed),
            frames_rejected: self.frames_rejected.load(Ordering::Relaxed),
            upstream_cancels: self.upstream_cancels.load(Ordering::Relaxed),
            local_cancels: self.local_cancels.load(Ordering::Relaxed),
        }
    }

    /// Routes one delivered cancellation: blame-table hits go upstream
    /// (with the root identity) and locally; misses go locally only.
    fn route_cancel(&self, key: TaskKey) {
        let (blamed, local, upstream) = {
            let st = self.st.lock().unwrap();
            (
                st.blame.get(&key.0).cloned(),
                st.local.clone(),
                st.upstream.clone(),
            )
        };
        match blamed {
            Some(identity) => {
                self.upstream_cancels.fetch_add(1, Ordering::Relaxed);
                if let Some(up) = upstream {
                    up.cancel(TaskKey(identity.root_key));
                }
                if let Some(l) = local {
                    l.cancel(key);
                }
            }
            None => {
                self.local_cancels.fetch_add(1, Ordering::Relaxed);
                if let Some(l) = local {
                    l.cancel(key);
                }
            }
        }
    }
}

struct EdgeInitiator {
    edge: Arc<FedEdge>,
}

impl CancelInitiator for EdgeInitiator {
    fn cancel(&self, key: TaskKey) {
        self.edge.route_cancel(key);
    }

    fn reexec(&self, key: TaskKey) {
        let local = self.edge.st.lock().unwrap().local.clone();
        if let Some(l) = local {
            l.reexec(key);
        }
    }

    fn drop_parked(&self, key: TaskKey) {
        let local = self.edge.st.lock().unwrap().local.clone();
        if let Some(l) = local {
            l.drop_parked(key);
        }
    }
}

/// [`RuntimePort`] for `Arc<FedEdge>` so the edge stacks like any other
/// middleware. `create_cancel` consumes the armed identity; everything
/// else forwards.
impl RuntimePort for FedEdge {
    fn register_resource(&self, name: &str, rtype: ResourceType) -> ResourceId {
        self.inner.register_resource(name, rtype)
    }

    fn create_cancel(&self, key: Option<u64>) -> TaskId {
        let frame = self.st.lock().unwrap().pending.take();
        let identity = match frame {
            Some(bytes) => match EdgeIdentity::decode(&bytes) {
                Ok(id) => Some(id),
                Err(_) => {
                    // Loud rejection: counted here, required zero by I9.
                    self.frames_rejected.fetch_add(1, Ordering::Relaxed);
                    None
                }
            },
            None => None,
        };
        let key = identity.as_ref().map(|id| id.remote_key()).or(key);
        let task = self.inner.create_cancel(key);
        if let Some(id) = identity {
            self.frames_carried.fetch_add(1, Ordering::Relaxed);
            self.st.lock().unwrap().blame.insert(id.remote_key(), id);
        }
        task
    }

    fn free_cancel(&self, task: TaskId) {
        self.inner.free_cancel(task)
    }

    fn set_cancellable(&self, task: TaskId, cancellable: bool) {
        self.inner.set_cancellable(task, cancellable)
    }

    fn mark_background(&self, task: TaskId) {
        self.inner.mark_background(task)
    }

    fn install_initiator(&self, initiator: Arc<dyn CancelInitiator>) {
        // The callee's own initiator becomes the local leg; the inner
        // port gets the splitter, which routes blame-table hits upstream
        // as well. Re-installation replaces the local leg only.
        self.st.lock().unwrap().local = Some(initiator);
        let me = self
            .me
            .lock()
            .unwrap()
            .upgrade()
            .expect("FedEdge::over always seeds the self-reference");
        self.inner
            .install_initiator(Arc::new(EdgeInitiator { edge: me }));
    }

    fn get(&self, task: TaskId, rid: ResourceId, amount: u64) {
        self.inner.get(task, rid, amount)
    }

    fn free(&self, task: TaskId, rid: ResourceId, amount: u64) {
        self.inner.free(task, rid, amount)
    }

    fn slow_by(&self, task: TaskId, rid: ResourceId, amount: u64) {
        self.inner.slow_by(task, rid, amount)
    }

    fn progress(&self, task: TaskId, done: u64, total: u64) {
        self.inner.progress(task, done, total)
    }

    fn unit_started(&self, task: TaskId) {
        self.inner.unit_started(task)
    }

    fn unit_finished(&self, task: TaskId) -> Option<u64> {
        self.inner.unit_finished(task)
    }

    fn record_drop(&self) {
        self.inner.record_drop()
    }

    fn tick(&self) -> TickOutcome {
        self.inner.tick()
    }

    fn clock(&self) -> Arc<dyn Clock> {
        self.inner.clock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::CancelFn;
    use atropos::{AtroposConfig, AtroposRuntime};
    use atropos_sim::VirtualClock;

    fn runtime() -> Arc<AtroposRuntime> {
        let cfg = AtroposConfig {
            cancel_min_interval_ns: 0,
            ..AtroposConfig::default()
        };
        Arc::new(AtroposRuntime::new(cfg, Arc::new(VirtualClock::new())))
    }

    fn identity() -> EdgeIdentity {
        EdgeIdentity::local(NodeId(0), 5).hop(NodeId(1))
    }

    #[test]
    fn frame_round_trips() {
        let id = EdgeIdentity {
            root_key: u64::MAX - 3,
            path: vec![NodeId(0), NodeId(7), NodeId(65535)],
        };
        assert_eq!(EdgeIdentity::decode(&id.encode()), Ok(id));
    }

    #[test]
    fn malformed_frames_rejected_loudly() {
        let good = identity().encode();
        assert_eq!(EdgeIdentity::decode(&[]), Err(FrameError::TooShort));
        assert_eq!(
            EdgeIdentity::decode(&good[..good.len() - 1]),
            Err(FrameError::Truncated)
        );
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(EdgeIdentity::decode(&bad_magic), Err(FrameError::BadMagic));
        let mut corrupt = good.clone();
        corrupt[6] ^= 0x01; // inside root_key
        assert_eq!(EdgeIdentity::decode(&corrupt), Err(FrameError::BadChecksum));
        let mut empty = EdgeIdentity::local(NodeId(0), 1).encode();
        empty[12] = 0;
        empty[13] = 0;
        assert_eq!(EdgeIdentity::decode(&empty), Err(FrameError::EmptyPath));
        let long = EdgeIdentity {
            root_key: 1,
            path: vec![NodeId(0); MAX_HOPS + 1],
        };
        assert_eq!(
            EdgeIdentity::decode(&long.encode()),
            Err(FrameError::PathTooLong)
        );
    }

    #[test]
    fn remote_key_namespaces_origin_and_root() {
        let a = EdgeIdentity::local(NodeId(1), 5).hop(NodeId(2));
        let b = EdgeIdentity::local(NodeId(3), 5).hop(NodeId(2));
        let c = EdgeIdentity::local(NodeId(1), (1 << 40) + 5).hop(NodeId(2));
        assert_ne!(a.remote_key(), b.remote_key());
        assert_ne!(a.remote_key(), c.remote_key());
        assert!(a.remote_key() >= FED_KEY_BASE);
        assert!(a.remote_key() < 1 << 63); // below the auto-key namespace
    }

    #[test]
    fn edge_carries_identity_and_routes_cancels_upstream() {
        let rt = runtime();
        let edge = FedEdge::over(NodeId(1), rt.clone());

        let upstream = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let local = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let (u, l) = (upstream.clone(), local.clone());
        edge.install_upstream(Arc::new(CancelFn(move |key: TaskKey| u.lock().push(key.0))));
        let port: Arc<dyn RuntimePort> = edge.clone();
        port.install_initiator(Arc::new(CancelFn(move |key: TaskKey| l.lock().push(key.0))));

        let id = identity();
        let task = edge.open(&id);
        assert_eq!(edge.blame_for(id.remote_key()), Some(id.clone()));

        rt.cancel_key(TaskKey(id.remote_key()));
        // Upstream leg carries the *root* key; local leg the proxy key.
        assert_eq!(upstream.lock().clone(), vec![5]);
        assert_eq!(local.lock().clone(), vec![id.remote_key()]);

        // The blame table still names the origin after the cancel.
        let blamed = edge
            .blame_for(id.remote_key())
            .expect("proxy key stays blamed");
        assert_eq!((blamed.root_key, blamed.origin()), (5, NodeId(0)));

        port.free_cancel(task);
        let st = edge.stats();
        assert_eq!(st.frames_carried, 1);
        assert_eq!(st.frames_rejected, 0);
        assert_eq!(st.upstream_cancels, 1);
        assert_eq!(st.local_cancels, 0);
    }

    #[test]
    fn unidentified_tasks_cancel_locally_only() {
        let rt = runtime();
        let edge = FedEdge::over(NodeId(1), rt.clone());
        let upstream = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let local = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let (u, l) = (upstream.clone(), local.clone());
        edge.install_upstream(Arc::new(CancelFn(move |key: TaskKey| u.lock().push(key.0))));
        let port: Arc<dyn RuntimePort> = edge.clone();
        port.install_initiator(Arc::new(CancelFn(move |key: TaskKey| l.lock().push(key.0))));

        let t = port.create_cancel(Some(77));
        rt.cancel_key(TaskKey(77));
        assert!(upstream.lock().is_empty());
        assert_eq!(local.lock().clone(), vec![77]);
        assert_eq!(edge.stats().local_cancels, 1);
        port.free_cancel(t);
        // No identity, no blame record.
        assert_eq!(edge.blame_for(77), None);
    }
}
