//! Shard-to-shard transport for the actor backend.
//!
//! The actor engine ([`crate::asyncengine`]) splits the vertex set into
//! shards that exchange one [`Batch`] per shard per round — the round's
//! published messages for the shard's stepped vertices, plus a `retiring`
//! flag with which a drained shard deregisters from the round barrier.
//! This module is the pluggable wire underneath that protocol:
//!
//! * [`Transport`] — the trait the engine drives: `broadcast` one batch to
//!   every peer the barrier holds live, `recv` the next incoming event;
//! * [`ChannelTransport`] — in-process bounded mpsc channels
//!   ([`channel_mesh`]), moving `Msg` values directly (no serialization);
//! * [`TcpTransport`] — length-prefixed frames over TCP sockets
//!   ([`tcp_loopback_mesh`]), for runs whose shards do not share an
//!   address space; messages cross as bytes via [`WireCodec`].
//!
//! Each endpoint meters only what it sends ([`TransportStats`]): which
//! peers a shard sends to in a round is fixed by the run, while what it
//! has received when it retires depends on how far its peers ran ahead.
//!
//! Channel capacity and socket framing are transport concerns; *when* a
//! shard may advance is not — the round barrier lives in the engine. The
//! flow-control invariant that makes bounded channels deadlock-free is
//! barrier-derived: a shard only steps round `r + 1` after draining every
//! live peer's round-`r` batch, so no peer is ever more than one round
//! ahead and at most two batches per peer are in flight. [`channel_mesh`]
//! sizes its buffers to hold that worst case, so `broadcast` never blocks.

use crate::wire::WireCodec;
use graphcore::VertexId;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::time::Duration;

/// Default stall timeout: how long a `recv` may sit idle before the
/// transport reports [`Recv::Stalled`]. The round barrier never waits
/// for a retired peer, so a healthy run always has a batch on the way;
/// a full minute of silence means a peer died without retiring (or
/// livelocked). The engine's watchdog turns the stall into a
/// structured error with a diagnostic snapshot — a loud abort beats a
/// silent hang. Tighten per run with
/// [`ActorRunner::stall_timeout`](crate::ActorRunner::stall_timeout) or
/// [`Transport::set_stall_timeout`].
pub const RECV_STALL_TIMEOUT: Duration = Duration::from_secs(60);

/// Largest frame payload a TCP reader accepts, in bytes. The `u32`
/// length prefix is untrusted input: a frame declaring more than this is
/// treated as a broken link ([`Recv::Lost`]) before anything is
/// allocated for it. Generous for real batches — a 2²⁰-vertex round at
/// 200 bytes per entry still fits.
pub const MAX_FRAME_BYTES: usize = 256 << 20;

/// One stepped vertex's round result as it crosses the wire: the message
/// it published, and whether that publication was its final broadcast.
#[derive(Clone, Debug, PartialEq)]
pub struct Update<M> {
    /// The vertex that stepped.
    pub v: VertexId,
    /// The message it published this round.
    pub msg: M,
    /// Whether the vertex terminated (this is its final broadcast).
    pub terminated: bool,
}

/// Everything one shard publishes in one round, in vertex order.
#[derive(Clone, Debug, PartialEq)]
pub struct Batch<M> {
    /// Sending shard.
    pub from: usize,
    /// Round the updates belong to.
    pub round: u32,
    /// True when this is the shard's last batch: every vertex it owns has
    /// terminated, and peers must stop expecting batches from it (this is
    /// how a shard deregisters from the round barrier).
    pub retiring: bool,
    /// The round's published messages for the shard's stepped vertices.
    pub entries: Vec<Update<M>>,
}

/// One incoming transport event.
#[derive(Debug)]
pub enum Recv<M> {
    /// A peer's round batch.
    Batch(Batch<M>),
    /// The incoming link from this peer closed. Clean when the peer had
    /// already retired; fatal (a crashed shard) when it had not — the
    /// engine decides which, because liveness is barrier state.
    Lost(usize),
    /// Every incoming link is closed.
    Closed,
    /// Nothing arrived within the stall timeout
    /// ([`RECV_STALL_TIMEOUT`] unless overridden): the run is wedged.
    /// The engine's watchdog turns this into a structured error with a
    /// diagnostic snapshot instead of hanging.
    Stalled,
}

/// Cumulative outgoing traffic of one shard's transport endpoint. The
/// byte count is zero for transports that move values without
/// serializing (the in-process channel mesh).
///
/// Every count is per send attempted to a peer live at round start,
/// delivered or not. Which peers are live at the start of round `r`
/// (those whose last round is ≥ `r`) is a function of the run alone, so
/// the counts repeat exactly from run to run; whether a send reaches a
/// peer that has just finished its last round is a race. Nothing
/// incoming is counted (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Batches sent to peers.
    pub batches_out: u64,
    /// Vertex updates sent to peers (entries across all batches).
    pub entries_out: u64,
    /// Encoded frame bytes sent to peers.
    pub bytes_out: u64,
}

/// A shard's endpoint: broadcast one batch per round, receive peers'.
///
/// Implementations deliver batches from any single peer in send order
/// (per-peer FIFO); cross-peer interleaving is arbitrary. `broadcast` to
/// an already-departed peer must be a no-op, not an error — retirement
/// notices race with the final batches of other shards by design — and
/// still counts as sent (see [`TransportStats`]).
pub trait Transport<M>: Send {
    /// Sends `batch` to every peer `p` with `live[p]` set: the peers the
    /// round barrier holds live at round start (indexed by shard id).
    fn broadcast(&mut self, batch: Batch<M>, live: &[bool]);
    /// Blocks for the next incoming event.
    fn recv(&mut self) -> Recv<M>;
    /// Gracefully leaves the mesh after the shard's final broadcast.
    ///
    /// In-process channels lose nothing on drop, so the default does
    /// exactly that. Transports with abortive-close hazards (TCP resets
    /// discard in-flight frames when a socket closes with unread data)
    /// override this to half-close, drain until every peer has left, and
    /// only then tear down.
    fn linger(self)
    where
        Self: Sized,
    {
    }
    /// Replaces the stall timeout after which `recv` reports
    /// [`Recv::Stalled`]. The default is a no-op for transports that
    /// never stall (test doubles, in-memory scripts).
    fn set_stall_timeout(&mut self, _timeout: Duration) {}
    /// Cumulative outgoing traffic of this endpoint. Transports that do
    /// not meter return zeros.
    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }
}

/// Capacity of a shard's inbox: at most two batches per peer are ever in
/// flight (see the module docs), so this never makes `broadcast` block.
fn inbox_capacity(shards: usize) -> usize {
    2 * shards.max(1)
}

// ---------------------------------------------------------------------------
// In-process channels
// ---------------------------------------------------------------------------

/// In-process transport: bounded mpsc channels in a full mesh, moving
/// `Msg` values directly. Build one per shard with [`channel_mesh`].
pub struct ChannelTransport<M> {
    txs: Vec<Option<SyncSender<Batch<M>>>>,
    rx: Receiver<Batch<M>>,
    stall_timeout: Duration,
    stats: TransportStats,
}

/// Builds a `shards`-way full mesh of bounded channels, one endpoint per
/// shard. Buffers are sized so a barrier-respecting shard never blocks in
/// `broadcast` (see the module docs for the two-in-flight argument).
pub fn channel_mesh<M: Send>(shards: usize) -> Vec<ChannelTransport<M>> {
    let cap = inbox_capacity(shards);
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..shards)
        .map(|_| std::sync::mpsc::sync_channel::<Batch<M>>(cap))
        .unzip();
    rxs.into_iter()
        .enumerate()
        .map(|(me, rx)| ChannelTransport {
            txs: txs
                .iter()
                .enumerate()
                .map(|(j, tx)| (j != me).then(|| tx.clone()))
                .collect(),
            rx,
            stall_timeout: RECV_STALL_TIMEOUT,
            stats: TransportStats::default(),
        })
        .collect()
}

impl<M: Clone + Send> Transport<M> for ChannelTransport<M> {
    fn broadcast(&mut self, batch: Batch<M>, live: &[bool]) {
        // A send error means the peer exited (retired and dropped its
        // receiver) — by the trait contract that is a no-op.
        for tx in self
            .txs
            .iter()
            .zip(live)
            .filter_map(|(tx, &l)| tx.as_ref().filter(|_| l))
        {
            let _ = tx.send(batch.clone());
            self.stats.batches_out += 1;
            self.stats.entries_out += batch.entries.len() as u64;
        }
    }

    fn recv(&mut self) -> Recv<M> {
        match self.rx.recv_timeout(self.stall_timeout) {
            Ok(batch) => Recv::Batch(batch),
            Err(RecvTimeoutError::Disconnected) => Recv::Closed,
            Err(RecvTimeoutError::Timeout) => Recv::Stalled,
        }
    }

    fn set_stall_timeout(&mut self, timeout: Duration) {
        self.stall_timeout = timeout;
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

// ---------------------------------------------------------------------------
// Length-prefixed TCP framing
// ---------------------------------------------------------------------------

/// Encodes one batch as a length-prefixed frame: a `u32` little-endian
/// payload length, then `from`/`round`/`retiring`/entry count, then the
/// entries (`v`, `terminated`, codec-encoded message).
pub fn encode_frame<M: WireCodec>(batch: &Batch<M>) -> Vec<u8> {
    let mut payload = Vec::new();
    (batch.from as u32).encode(&mut payload);
    batch.round.encode(&mut payload);
    batch.retiring.encode(&mut payload);
    (batch.entries.len() as u32).encode(&mut payload);
    for e in &batch.entries {
        e.v.encode(&mut payload);
        e.terminated.encode(&mut payload);
        e.msg.encode(&mut payload);
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    (payload.len() as u32).encode(&mut frame);
    frame.extend_from_slice(&payload);
    frame
}

/// Decodes one frame *payload* (the bytes after the length prefix).
pub fn decode_payload<M: WireCodec>(mut buf: &[u8]) -> Option<Batch<M>> {
    let buf = &mut buf;
    let from = u32::decode(buf)? as usize;
    let round = u32::decode(buf)?;
    let retiring = bool::decode(buf)?;
    let count = u32::decode(buf)? as usize;
    // Every entry takes at least 5 bytes (vertex + flag), so an inflated
    // count cannot reserve more than the payload could hold.
    let mut entries = Vec::with_capacity(count.min(buf.len() / 5));
    for _ in 0..count {
        let v = VertexId::decode(buf)?;
        let terminated = bool::decode(buf)?;
        let msg = M::decode(buf)?;
        entries.push(Update { v, msg, terminated });
    }
    buf.is_empty().then_some(Batch {
        from,
        round,
        retiring,
        entries,
    })
}

/// TCP transport: one duplex stream per peer pair, length-prefixed
/// [`WireCodec`] frames. Build a loopback mesh with [`tcp_loopback_mesh`].
///
/// Each endpoint runs one reader thread per peer stream, decoding frames
/// into the shard's inbox; dropping the endpoint shuts the sockets down,
/// which unblocks and reaps those threads.
pub struct TcpTransport<M> {
    streams: Vec<(usize, TcpStream)>,
    rx: Receiver<Recv<M>>,
    /// Peers whose incoming link has already reported [`Recv::Lost`]
    /// through `recv` — what remains is what `linger` must wait out.
    lost_seen: usize,
    stall_timeout: Duration,
    stats: TransportStats,
    // Keeps the inbox open while the endpoint lives even if every reader
    // thread has exited (so `recv` reports per-peer `Lost`, not `Closed`).
    _tx: SyncSender<Recv<M>>,
}

/// Builds a `shards`-way TCP full mesh over loopback: shard `i < j`
/// connects to shard `j`'s listener, a one-`u32` handshake names the
/// connector, and the resulting duplex stream serves both directions.
///
/// Multi-process runs would do the same dance with real addresses; the
/// framing and handshake are address-agnostic, only the rendezvous here
/// (all listeners in one process) is loopback-specific.
pub fn tcp_loopback_mesh<M>(shards: usize) -> std::io::Result<Vec<TcpTransport<M>>>
where
    M: WireCodec + Send + 'static,
{
    let listeners: Vec<TcpListener> = (0..shards)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<std::io::Result<_>>()?;
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr())
        .collect::<std::io::Result<_>>()?;

    let mut streams: Vec<Vec<(usize, TcpStream)>> = (0..shards).map(|_| Vec::new()).collect();
    for i in 0..shards {
        for j in (i + 1)..shards {
            // Connector side: dial j and say who we are.
            let mut out = TcpStream::connect(addrs[j])?;
            out.write_all(&(i as u32).to_le_bytes())?;
            // Acceptor side: the connect above is the only pending one on
            // j's listener, so accept pairs them up deterministically.
            let (mut inc, _) = listeners[j].accept()?;
            let mut id = [0u8; 4];
            inc.read_exact(&mut id)?;
            let peer = u32::from_le_bytes(id) as usize;
            if peer != i {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("handshake on shard {j}'s listener named shard {peer}, expected {i}"),
                ));
            }
            out.set_nodelay(true)?;
            inc.set_nodelay(true)?;
            streams[i].push((j, out));
            streams[j].push((peer, inc));
        }
    }

    streams
        .into_iter()
        .map(|peers| {
            let (tx, rx) = std::sync::mpsc::sync_channel::<Recv<M>>(inbox_capacity(shards));
            let mut kept = Vec::with_capacity(peers.len());
            for (peer, stream) in peers {
                let reader = stream.try_clone()?;
                let tx = tx.clone();
                // Reader threads exit on EOF (peer retired and closed) or
                // on socket error; either way they report `Lost` so the
                // engine can tell clean retirement from a crashed shard.
                std::thread::spawn(move || read_frames(peer, reader, tx));
                kept.push((peer, stream));
            }
            Ok(TcpTransport {
                streams: kept,
                rx,
                lost_seen: 0,
                stall_timeout: RECV_STALL_TIMEOUT,
                stats: TransportStats::default(),
                _tx: tx,
            })
        })
        .collect()
}

/// Reads one frame payload off `stream`: `None` on EOF, a socket error,
/// a truncated payload, or a length prefix above [`MAX_FRAME_BYTES`].
/// The buffer grows with the bytes that actually arrive, never with
/// what the prefix claims.
fn read_payload(stream: &mut TcpStream) -> Option<Vec<u8>> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).ok()?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_BYTES {
        return None;
    }
    let mut payload = Vec::new();
    stream.take(len as u64).read_to_end(&mut payload).ok()?;
    (payload.len() == len).then_some(payload)
}

/// Reader-thread body: decode length-prefixed frames from `stream` into
/// `tx` until the peer closes or the inbox goes away. A link that ends,
/// breaks, or delivers an oversize or undecodable frame reports
/// [`Recv::Lost`] — to the engine, a peer that misframes is as gone as
/// one that hung up.
fn read_frames<M: WireCodec>(peer: usize, mut stream: TcpStream, tx: SyncSender<Recv<M>>) {
    loop {
        let Some(batch) = read_payload(&mut stream).and_then(|p| decode_payload::<M>(&p)) else {
            let _ = tx.send(Recv::Lost(peer));
            return;
        };
        if tx.send(Recv::Batch(batch)).is_err() {
            return; // Endpoint dropped; stop reading.
        }
    }
}

impl<M: WireCodec + Send> Transport<M> for TcpTransport<M> {
    fn broadcast(&mut self, batch: Batch<M>, live: &[bool]) {
        let frame = encode_frame(&batch);
        // A write error means the peer exited and closed its socket — by
        // the trait contract that is a no-op.
        for (_, stream) in self.streams.iter_mut().filter(|(p, _)| live[*p]) {
            let _ = stream.write_all(&frame);
            self.stats.batches_out += 1;
            self.stats.entries_out += batch.entries.len() as u64;
            self.stats.bytes_out += frame.len() as u64;
        }
    }

    fn recv(&mut self) -> Recv<M> {
        match self.rx.recv_timeout(self.stall_timeout) {
            Ok(event) => {
                if let Recv::Lost(_) = event {
                    self.lost_seen += 1;
                }
                event
            }
            Err(RecvTimeoutError::Disconnected) => Recv::Closed,
            Err(RecvTimeoutError::Timeout) => Recv::Stalled,
        }
    }

    fn set_stall_timeout(&mut self, timeout: Duration) {
        self.stall_timeout = timeout;
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }

    /// Graceful leave: half-close every stream (the FIN lands *after* the
    /// final batch, so peers see an orderly end of stream), then keep
    /// draining — discarding late round traffic — until every peer's link
    /// has reported [`Recv::Lost`]. Closing a socket that still has
    /// unread incoming data provokes a TCP reset, which may discard this
    /// shard's own in-flight frames; draining to the very end is what
    /// guarantees the close is clean.
    fn linger(mut self) {
        for (_, stream) in &self.streams {
            let _ = stream.shutdown(Shutdown::Write);
        }
        while self.lost_seen < self.streams.len() {
            match Transport::recv(&mut self) {
                // A stall while lingering means a peer wedged after our
                // own work finished; leaving is the only useful move.
                Recv::Closed | Recv::Stalled => break,
                _ => {}
            }
        }
    }
}

impl<M> Drop for TcpTransport<M> {
    fn drop(&mut self) {
        for (_, stream) in &self.streams {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(from: usize, round: u32) -> Batch<u64> {
        Batch {
            from,
            round,
            retiring: round == 3,
            entries: vec![
                Update {
                    v: 7,
                    msg: 0xfeed_beef,
                    terminated: false,
                },
                Update {
                    v: 8,
                    msg: round as u64,
                    terminated: true,
                },
            ],
        }
    }

    /// Every shard of a `shards`-way mesh but `me`: the live set at round 1.
    fn peers(shards: usize, me: usize) -> Vec<bool> {
        (0..shards).map(|p| p != me).collect()
    }

    #[test]
    fn frame_round_trips() {
        let b = batch(2, 3);
        let frame = encode_frame(&b);
        let (len, payload) = frame.split_at(4);
        assert_eq!(
            u32::from_le_bytes(len.try_into().unwrap()) as usize,
            payload.len()
        );
        assert_eq!(decode_payload::<u64>(payload), Some(b));
    }

    #[test]
    fn frame_rejects_trailing_garbage() {
        let mut frame = encode_frame(&batch(0, 1));
        frame.push(0xff);
        assert_eq!(decode_payload::<u64>(&frame[4..]), None);
    }

    #[test]
    fn channel_mesh_broadcasts_to_all_peers() {
        let mut mesh = channel_mesh::<u64>(3);
        let mut t2 = mesh.pop().unwrap();
        let mut t1 = mesh.pop().unwrap();
        let mut t0 = mesh.pop().unwrap();
        t0.broadcast(batch(0, 1), &peers(3, 0));
        for t in [&mut t1, &mut t2] {
            match t.recv() {
                Recv::Batch(b) => assert_eq!(b, batch(0, 1)),
                other => panic!("expected batch, got {other:?}"),
            }
        }
        // The sender's own inbox stays empty; dropping both peers closes it.
        drop(t1);
        drop(t2);
        assert!(matches!(t0.recv(), Recv::Closed));
    }

    #[test]
    fn channel_recv_reports_stall_after_timeout() {
        let mut mesh = channel_mesh::<u64>(2);
        let mut t0 = mesh.remove(0);
        t0.set_stall_timeout(Duration::from_millis(10));
        assert!(matches!(t0.recv(), Recv::Stalled));
    }

    #[test]
    fn channel_stats_meter_batches_and_entries() {
        let mut mesh = channel_mesh::<u64>(2);
        let mut t1 = mesh.pop().unwrap();
        let mut t0 = mesh.pop().unwrap();
        t0.broadcast(batch(0, 1), &peers(2, 0));
        t0.broadcast(batch(0, 2), &peers(2, 0));
        assert_eq!(t0.stats().batches_out, 2);
        assert_eq!(t0.stats().entries_out, 4);
        assert_eq!(t0.stats().bytes_out, 0, "channels do not serialize");
        assert!(matches!(t1.recv(), Recv::Batch(_)));
        assert_eq!(
            t1.stats(),
            TransportStats::default(),
            "receiving counts nothing"
        );
    }

    #[test]
    fn tcp_stats_meter_wire_bytes_both_ways() {
        let mut mesh = tcp_loopback_mesh::<u64>(2).unwrap();
        let mut t1 = mesh.pop().unwrap();
        let mut t0 = mesh.pop().unwrap();
        let frame_len = encode_frame(&batch(0, 1)).len() as u64;
        t0.broadcast(batch(0, 1), &peers(2, 0));
        assert_eq!(t0.stats().bytes_out, frame_len);
        assert_eq!(t0.stats().batches_out, 1);
        assert!(matches!(t1.recv(), Recv::Batch(_)));
        assert_eq!(
            t1.stats(),
            TransportStats::default(),
            "receiving counts nothing"
        );
        // The reply crosses the same duplex stream, metered at its sender.
        let reply_len = encode_frame(&batch(1, 2)).len() as u64;
        t1.broadcast(batch(1, 2), &peers(2, 1));
        assert!(matches!(t0.recv(), Recv::Batch(_)));
        assert_eq!(t1.stats().bytes_out, reply_len);
        assert_eq!(t0.stats().bytes_out, frame_len);
    }

    #[test]
    fn tcp_recv_reports_stall_after_timeout() {
        let mut mesh = tcp_loopback_mesh::<u64>(2).unwrap();
        let mut t0 = mesh.remove(0);
        t0.set_stall_timeout(Duration::from_millis(10));
        assert!(matches!(t0.recv(), Recv::Stalled));
    }

    #[test]
    fn channel_broadcast_to_departed_peer_is_noop() {
        let mut mesh = channel_mesh::<u64>(2);
        let t1 = mesh.pop().unwrap();
        let mut t0 = mesh.pop().unwrap();
        drop(t1);
        t0.broadcast(batch(0, 1), &peers(2, 0)); // must not panic
                                                 // Counted all the same: the peer was live at round start.
        assert_eq!(t0.stats().batches_out, 1);
        assert_eq!(t0.stats().entries_out, 2);
    }

    #[test]
    fn broadcast_skips_peers_outside_the_live_set() {
        let mut mesh = channel_mesh::<u64>(3);
        let mut t2 = mesh.pop().unwrap();
        let mut t1 = mesh.pop().unwrap();
        let mut t0 = mesh.pop().unwrap();
        t1.set_stall_timeout(Duration::from_millis(10));
        t0.broadcast(batch(0, 1), &[false, false, true]);
        assert!(matches!(t2.recv(), Recv::Batch(_)));
        assert!(matches!(t1.recv(), Recv::Stalled), "shard 1 was not live");
        assert_eq!(t0.stats().batches_out, 1);

        let mut mesh = tcp_loopback_mesh::<u64>(3).unwrap();
        let mut t2 = mesh.pop().unwrap();
        let mut t1 = mesh.pop().unwrap();
        let mut t0 = mesh.pop().unwrap();
        t1.set_stall_timeout(Duration::from_millis(10));
        t0.broadcast(batch(0, 1), &[false, false, true]);
        assert!(matches!(t2.recv(), Recv::Batch(_)));
        assert!(matches!(t1.recv(), Recv::Stalled), "shard 1 was not live");
        let frame_len = encode_frame(&batch(0, 1)).len() as u64;
        assert_eq!(
            (t0.stats().batches_out, t0.stats().bytes_out),
            (1, frame_len)
        );
    }

    /// Writes `bytes` into a loopback socket whose far end runs a frame
    /// reader, and returns the first event the reader reports.
    fn reader_event_for(bytes: &[u8]) -> Recv<u64> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut writer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (reader, _) = listener.accept().unwrap();
        let (tx, rx) = std::sync::mpsc::sync_channel(4);
        let handle = std::thread::spawn(move || read_frames::<u64>(5, reader, tx));
        writer.write_all(bytes).unwrap();
        let event = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        // The reader must have stopped on its own, socket still open.
        handle.join().expect("reader thread must not panic");
        event
    }

    #[test]
    fn tcp_reader_rejects_oversize_and_garbage_frames() {
        // A length prefix far above the cap: reported as a lost link
        // without allocating the claimed 4 GiB.
        let huge = u32::MAX.to_le_bytes();
        assert!(matches!(reader_event_for(&huge), Recv::Lost(5)));
        let over = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes();
        assert!(matches!(reader_event_for(&over), Recv::Lost(5)));
        // Well-framed payloads that do not decode — an entry count far
        // beyond the bytes present, or a flag byte that is no bool: lost,
        // not a panic.
        for payload in [
            [0u8, 0, 0, 0, 1, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 9, 9],
            [0u8, 0, 0, 0, 1, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0],
        ] {
            let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&payload);
            assert!(matches!(reader_event_for(&frame), Recv::Lost(5)));
        }
        // A frame cut short by the peer's close is lost too.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut writer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (reader, _) = listener.accept().unwrap();
        let (tx, rx) = std::sync::mpsc::sync_channel(4);
        let handle = std::thread::spawn(move || read_frames::<u64>(2, reader, tx));
        writer.write_all(&100u32.to_le_bytes()).unwrap();
        writer.write_all(&[1, 2, 3]).unwrap();
        drop(writer);
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(10)).unwrap(),
            Recv::Lost(2)
        ));
        handle.join().unwrap();
    }

    #[test]
    fn tcp_mesh_round_trips_and_reports_loss() {
        let mut mesh = tcp_loopback_mesh::<u64>(3).unwrap();
        let mut t2 = mesh.pop().unwrap();
        let mut t1 = mesh.pop().unwrap();
        let mut t0 = mesh.pop().unwrap();
        t0.broadcast(batch(0, 5), &peers(3, 0));
        for t in [&mut t1, &mut t2] {
            match t.recv() {
                Recv::Batch(b) => assert_eq!(b, batch(0, 5)),
                other => panic!("expected batch, got {other:?}"),
            }
        }
        // Bidirectional: a reply crosses the same stream pair.
        t1.broadcast(batch(1, 5), &peers(3, 1));
        match t0.recv() {
            Recv::Batch(b) => assert_eq!(b.from, 1),
            other => panic!("expected batch, got {other:?}"),
        }
        // Dropping an endpoint closes its sockets; peers see `Lost`.
        drop(t1);
        match t0.recv() {
            Recv::Lost(peer) => assert_eq!(peer, 1),
            other => panic!("expected lost, got {other:?}"),
        }
    }
}
