//! The packet-level network simulation driver.
//!
//! Couples a [`Scenario`] (mobility + radio)
//! with a [`RoutingProtocol`]: each round the fleet moves, the neighbor
//! table is rebuilt, and every live packet copy gets one forwarding
//! opportunity over the lossy channel.
//!
//! ## Snapshot rounds
//!
//! A round has two phases. First every copy is evaluated, in canonical
//! index order, against the start-of-round snapshot: it draws from its own
//! RNG stream ([`SimRng::stream`] keyed by a per-round nonce and the copy's
//! index) and yields a pure `CopyOutcome`. Then the merge replays the
//! outcomes in the same order — emitting events, updating statistics, and
//! deduplicating same-round deliveries/forwards. No copy sees another
//! copy's same-round effect, so the result does not depend on evaluation
//! order (DESIGN.md, "Deterministic by construction").
//!
//! ## Events and causal traces
//!
//! When a [`Recorder`] is attached, the merge emits each copy's radio
//! events from the attempts its evaluation recorded, in canonical copy
//! order, before that copy's routing/causal events.
//! With a [`Sampler`] set, packets additionally carry a
//! trace id and emit a `causal.origin` → `causal.hop`* →
//! `causal.deliver`/`causal.drop` chain (see `vc_obs::causal`).

use crate::holders::HolderSet;
use crate::message::{Packet, PacketId, RoutingStats};
use crate::routing::RoutingProtocol;
use crate::world::WorldView;
use std::ops::Range;
use vc_obs::{reborrow, Recorder, Sampler};
use vc_sim::geom::SpatialGrid;
use vc_sim::node::VehicleId;
use vc_sim::radio::NeighborTable;
use vc_sim::rng::SimRng;
use vc_sim::scenario::Scenario;
use vc_sim::time::{SimDuration, SimTime};

/// One live copy of a packet.
#[derive(Debug, Clone)]
struct Copy {
    packet_idx: usize,
    holder: VehicleId,
    hops: u32,
    /// Accumulated per-hop radio latency, seconds.
    radio_latency_s: f64,
}

/// Per-packet simulation state.
#[derive(Debug)]
struct PacketState {
    packet: Packet,
    carried: HolderSet,
    delivered: bool,
}

/// One transmission attempt computed in the evaluation phase, replayed
/// (events + statistics) during the merge.
#[derive(Debug)]
struct Attempt {
    target: VehicleId,
    bytes: usize,
    contenders: usize,
    dist_m: f64,
    /// `Some(one-hop latency)` on success, `None` on channel loss.
    latency: Option<SimDuration>,
}

/// What happened to one copy this round, as seen from the round snapshot.
#[derive(Debug)]
enum Fate {
    /// The packet was delivered before this round: the copy dies silently.
    Dead,
    /// The holder went offline: the copy dies, and a traced one ends its
    /// chain with `causal.drop`.
    Dropped,
    /// Copy made no progress (failed direct attempt, TTL-frozen): it stays.
    Held,
    /// Direct delivery to the destination succeeded with this hop latency.
    Delivered(SimDuration),
    /// The protocol relayed; `keeps` is whether the holder retains its copy.
    Forwarded { keeps: bool },
}

/// The evaluation phase's full report for one copy.
#[derive(Debug)]
struct CopyOutcome {
    /// The copy's run of the round's flat attempt buffer.
    attempts: Range<usize>,
    fate: Fate,
}

/// The network simulation: inject packets, run rounds, read statistics.
pub struct NetSim<'a, P: RoutingProtocol> {
    scenario: &'a mut Scenario,
    protocol: P,
    packets: Vec<PacketState>,
    copies: Vec<Copy>,
    stats: RoutingStats,
    next_id: u64,
    now: SimTime,
    /// Neighbor table and spatial grid reused across rounds (the table's rows
    /// and the grid cells are rebuilt in place each round instead of
    /// reallocated).
    table: NeighborTable,
    grid: SpatialGrid,
    /// Causal tracing: off unless [`NetSim::set_sampler`] turns it on.
    sampler: Option<Sampler>,
    /// The round's working buffers, kept across rounds so the steady-state
    /// round loop stays allocation-free (and taken for the duration of a
    /// round, which keeps the merge loop's mutable packet borrows legal).
    scratch: RoundScratch,
}

/// What a round fills and empties again: one outcome per copy, every
/// copy's attempts end to end, the protocol's answer for the copy at hand,
/// and the two halves of the next round's copy list (`survivors` swaps
/// places with `NetSim::copies` each round).
#[derive(Debug, Default)]
struct RoundScratch {
    outcomes: Vec<CopyOutcome>,
    attempts: Vec<Attempt>,
    hops: Vec<VehicleId>,
    survivors: Vec<Copy>,
    new_copies: Vec<Copy>,
}

impl RoundScratch {
    fn heap_bytes(&self) -> u64 {
        use std::mem::size_of;
        (self.outcomes.capacity() * size_of::<CopyOutcome>()
            + self.attempts.capacity() * size_of::<Attempt>()
            + self.hops.capacity() * size_of::<VehicleId>()
            + (self.survivors.capacity() + self.new_copies.capacity()) * size_of::<Copy>())
            as u64
    }
}

/// Evaluates one link attempt from `from` to `to` against the read-only
/// channel model, drawing loss and latency from the copy's own RNG stream.
fn attempt_link(
    scenario: &Scenario,
    world: &WorldView<'_>,
    from: VehicleId,
    to: VehicleId,
    bytes: usize,
    rng: &mut SimRng,
) -> Attempt {
    let (a, b) = (world.pos(from), world.pos(to));
    let contenders = world.neighbors.degree(from);
    let latency = if rng.chance(scenario.delivery_probability(a, b)) {
        Some(scenario.channel.latency(contenders, bytes, rng))
    } else {
        None
    };
    Attempt { target: to, bytes, contenders, dist_m: a.distance(b), latency }
}

/// Pure per-copy round logic. Reads only the start-of-round snapshot (the
/// world view and packet states, which only the merge writes) and the
/// copy's private RNG stream, so the result is independent of evaluation
/// order.
/// The copy's attempts are appended to `attempts`; `hops` is the buffer the
/// protocol answers into.
#[allow(clippy::too_many_arguments)]
fn copy_outcome<P: RoutingProtocol>(
    index: usize,
    copy: &Copy,
    state: &PacketState,
    scenario: &Scenario,
    world: &WorldView<'_>,
    protocol: &P,
    round_key: u64,
    attempts: &mut Vec<Attempt>,
    hops: &mut Vec<VehicleId>,
) -> CopyOutcome {
    let first = attempts.len();
    // A copy dies when its packet was delivered (as of the round snapshot)
    // or its holder went offline (offline vehicles keep nothing running).
    if state.delivered {
        return CopyOutcome { attempts: first..first, fate: Fate::Dead };
    }
    if !world.is_online(copy.holder) {
        return CopyOutcome { attempts: first..first, fate: Fate::Dropped };
    }
    // The copy's stream is seeded only on the paths that draw from it: a
    // direct attempt, or at least one relay.
    let rng = || SimRng::stream(round_key, index as u64);
    let dst = state.packet.dst;
    // Direct delivery when the destination is a live neighbor.
    if world.is_online(dst) && world.neighbors.of(copy.holder).contains(dst) {
        let mut rng = rng();
        let attempt =
            attempt_link(scenario, world, copy.holder, dst, state.packet.size_bytes, &mut rng);
        let fate = match attempt.latency {
            Some(lat) => Fate::Delivered(lat),
            None => Fate::Held,
        };
        attempts.push(attempt);
        return CopyOutcome { attempts: first..first + 1, fate };
    }
    // Out of hop budget: the copy may still deliver directly later, but may
    // not be relayed further.
    if copy.hops >= state.packet.ttl_hops {
        return CopyOutcome { attempts: first..first, fate: Fate::Held };
    }
    // Ask the protocol for relays.
    hops.clear();
    protocol.next_hops(copy.holder, &state.packet, world, &state.carried, hops);
    if hops.is_empty() {
        return CopyOutcome { attempts: first..first, fate: Fate::Forwarded { keeps: true } };
    }
    let mut rng = rng();
    let mut forwarded = false;
    for &target in hops.iter() {
        debug_assert!(target != copy.holder);
        let attempt =
            attempt_link(scenario, world, copy.holder, target, state.packet.size_bytes, &mut rng);
        forwarded |= attempt.latency.is_some();
        attempts.push(attempt);
    }
    // Store-carry-forward: the holder keeps its copy unless the protocol
    // handed it off (single-copy protocols move, replicating ones also
    // keep).
    let keeps = !forwarded || protocol.replicates();
    CopyOutcome { attempts: first..attempts.len(), fate: Fate::Forwarded { keeps } }
}

impl<'a, P: RoutingProtocol> NetSim<'a, P> {
    /// Creates a simulation over an existing scenario.
    pub fn new(scenario: &'a mut Scenario, protocol: P) -> Self {
        // Cell size only affects query cost, never results, so sizing it
        // once from the current channel range is safe even if the range is
        // later mutated between rounds.
        let grid = SpatialGrid::new(scenario.channel.range_m.max(1.0));
        NetSim {
            scenario,
            protocol,
            packets: Vec::new(),
            copies: Vec::new(),
            stats: RoutingStats::default(),
            next_id: 0,
            now: SimTime::ZERO,
            table: NeighborTable::new(),
            grid,
            sampler: None,
            scratch: RoundScratch::default(),
        }
    }

    /// Turns causal tracing on: every packet sent after the call carries a
    /// trace id (E8 traces every packet; `benches/obs.rs` times both).
    pub fn set_sampler(&mut self, sampler: Sampler) {
        self.sampler = Some(sampler);
    }

    /// Injects a packet from `src` to `dst` with the given payload size.
    pub fn send(&mut self, src: VehicleId, dst: VehicleId, size_bytes: usize) -> PacketId {
        let id = PacketId(self.next_id);
        self.next_id += 1;
        let mut packet = Packet::new(id, src, dst, size_bytes, self.now);
        // A trace id is a pure hash of (scenario seed, packet id): no RNG
        // state is consumed, so traced and untraced runs stay identical.
        packet.trace = self.sampler.map(|s| s.trace_id(id.0));
        let idx = self.packets.len();
        let mut carried = HolderSet::new();
        carried.insert(src);
        self.packets.push(PacketState { packet, carried, delivered: false });
        self.copies.push(Copy { packet_idx: idx, holder: src, hops: 0, radio_latency_s: 0.0 });
        self.stats.sent += 1;
        id
    }

    /// [`NetSim::send`], then `causal.origin` opening the packet's trace
    /// chain when the sampler selected it and a recorder is attached.
    fn send_obs(
        &mut self,
        src: VehicleId,
        dst: VehicleId,
        size_bytes: usize,
        rec: Option<&mut Recorder>,
    ) {
        let id = self.send(src, dst, size_bytes);
        let trace = self.packets.last().and_then(|s| s.packet.trace);
        if let (Some(trace), Some(rec)) = (trace, rec) {
            rec.event(
                self.now,
                "net",
                "causal.origin",
                vec![
                    ("trace", trace.as_u64().into()),
                    ("packet", id.0.into()),
                    ("src", src.0.into()),
                    ("dst", dst.0.into()),
                ],
            );
        }
    }

    /// Injects `n` packets between random distinct online vehicle pairs.
    /// With a recorder attached, every packet the sampler selects emits
    /// `causal.origin`; the RNG draws are the same either way.
    pub fn send_random_pairs(
        &mut self,
        n: usize,
        size_bytes: usize,
        mut rec: Option<&mut Recorder>,
    ) {
        let online = self.scenario.fleet.online_ids();
        if online.len() < 2 {
            return;
        }
        for _ in 0..n {
            let a = online[self.scenario.rng.index(online.len())];
            let mut b = a;
            while b == a {
                b = online[self.scenario.rng.index(online.len())];
            }
            self.send_obs(a, b, size_bytes, reborrow(&mut rec));
        }
    }

    /// Runs `rounds` simulation rounds (each advances mobility by the
    /// scenario's `dt` and gives every live copy one forwarding chance).
    pub fn run_rounds(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.round(None);
        }
    }

    /// [`NetSim::run_rounds`] with instrumentation: each round emits `sim`
    /// radio tx/rx/drop events for every transmission attempt (in
    /// canonical copy order) plus `net`
    /// events `routing.forward` (relay accepted a copy) and
    /// `routing.deliver` (destination reached, with hop count and
    /// end-to-end latency). Packets selected by the sampler additionally
    /// emit `causal.hop` / `causal.deliver` / `causal.drop` chain events,
    /// and each round ends with a [`Recorder::timeseries_tick`]. The
    /// simulation — including the RNG streams — is identical to the
    /// unrecorded path.
    pub fn run_rounds_obs(&mut self, rounds: usize, mut rec: Option<&mut Recorder>) {
        for _ in 0..rounds {
            self.round(reborrow(&mut rec));
        }
    }

    fn round(&mut self, mut rec: Option<&mut Recorder>) {
        let _round = vc_obs::profile::frame("routing.round");
        {
            let _tick = vc_obs::profile::frame("shard.tick");
            self.scenario.tick();
        }
        self.now += SimDuration::from_secs_f64(self.scenario.dt);
        // One nonce per round seeds every copy's private stream, so the
        // copies draw nothing from `scenario.rng` themselves.
        let round_key = self.scenario.rng.next_u64();
        let scenario: &Scenario = self.scenario;
        {
            let _grid = vc_obs::profile::frame("grid.query");
            self.table.rebuild(
                &mut self.grid,
                scenario.fleet.positions(),
                scenario.fleet.online_flags(),
                scenario.channel.range_m,
            );
        }
        let world = WorldView {
            positions: scenario.fleet.positions(),
            velocities: scenario.fleet.velocities(),
            online: scenario.fleet.online_flags(),
            neighbors: &self.table,
        };
        self.protocol.begin_round(&world);

        let RoundScratch { mut outcomes, mut attempts, mut hops, mut survivors, mut new_copies } =
            std::mem::take(&mut self.scratch);
        let copies = std::mem::take(&mut self.copies);
        let now = self.now;
        {
            let _delivery = vc_obs::profile::frame("radio.delivery");
            attempts.clear();
            outcomes.extend(copies.iter().enumerate().map(|(i, copy)| {
                copy_outcome(
                    i,
                    copy,
                    &self.packets[copy.packet_idx],
                    scenario,
                    &world,
                    &self.protocol,
                    round_key,
                    &mut attempts,
                    &mut hops,
                )
            }));
        }

        // Merge in canonical copy order: emit each copy's radio events, then
        // replay its routing/causal events and statistics, dedupe same-round
        // deliveries (first in canonical order wins) and duplicate forwards
        // to an already-carried target.
        let _merge = vc_obs::profile::frame("shard.merge");
        for (copy, outcome) in copies.iter().zip(outcomes.drain(..)) {
            if let Some(rec) = reborrow(&mut rec) {
                for attempt in &attempts[outcome.attempts.clone()] {
                    record_attempt(rec, now, attempt);
                }
            }
            let trace = self.packets[copy.packet_idx].packet.trace;
            match outcome.fate {
                Fate::Dead => {}
                Fate::Dropped => {
                    if let (Some(trace), Some(rec)) = (trace, reborrow(&mut rec)) {
                        rec.event(
                            now,
                            "net",
                            "causal.drop",
                            vec![
                                ("trace", trace.as_u64().into()),
                                ("hop", copy.hops.into()),
                                ("holder", copy.holder.0.into()),
                            ],
                        );
                    }
                }
                Fate::Held => {
                    self.stats.transmissions += outcome.attempts.len() as u64;
                    survivors.push(copy.clone());
                }
                Fate::Delivered(lat) => {
                    self.stats.transmissions += 1;
                    let state = &mut self.packets[copy.packet_idx];
                    if !state.delivered {
                        state.delivered = true;
                        let e2e = now.saturating_since(state.packet.created).as_secs_f64()
                            + copy.radio_latency_s
                            + lat.as_secs_f64();
                        self.stats.delivered += 1;
                        self.stats.latencies_s.push(e2e);
                        self.stats.hops.push(copy.hops + 1);
                        let dst = state.packet.dst;
                        let pid = state.packet.id.0;
                        if let Some(rec) = reborrow(&mut rec) {
                            rec.event(
                                now,
                                "net",
                                "routing.deliver",
                                vec![
                                    ("packet", pid.into()),
                                    ("hops", (copy.hops + 1).into()),
                                    ("e2e_s", e2e.into()),
                                ],
                            );
                        }
                        if let (Some(trace), Some(rec)) = (trace, reborrow(&mut rec)) {
                            rec.event(
                                now,
                                "net",
                                "causal.deliver",
                                vec![
                                    ("trace", trace.as_u64().into()),
                                    ("hops", (copy.hops + 1).into()),
                                    ("relay", copy.holder.0.into()),
                                    ("dst", dst.0.into()),
                                    ("e2e_s", e2e.into()),
                                ],
                            );
                        }
                    }
                    // An earlier copy (in canonical order) already delivered
                    // the packet this round: this one dies silently.
                }
                Fate::Forwarded { keeps } => {
                    for attempt in &attempts[outcome.attempts] {
                        self.stats.transmissions += 1;
                        if attempt.latency.is_none() {
                            continue;
                        }
                        let state = &mut self.packets[copy.packet_idx];
                        // Duplicate forward to a target another copy already
                        // reached this round: the transmission happened (and
                        // was counted above) but spawns no second copy.
                        if state.carried.insert(attempt.target) {
                            let pid = state.packet.id.0;
                            new_copies.push(Copy {
                                packet_idx: copy.packet_idx,
                                holder: attempt.target,
                                hops: copy.hops + 1,
                                radio_latency_s: copy.radio_latency_s
                                    + attempt.latency.map_or(0.0, |l| l.as_secs_f64()),
                            });
                            if let Some(rec) = reborrow(&mut rec) {
                                rec.event(
                                    now,
                                    "net",
                                    "routing.forward",
                                    vec![
                                        ("packet", pid.into()),
                                        ("from", copy.holder.0.into()),
                                        ("to", attempt.target.0.into()),
                                    ],
                                );
                            }
                            if let (Some(trace), Some(rec)) = (trace, reborrow(&mut rec)) {
                                rec.event(
                                    now,
                                    "net",
                                    "causal.hop",
                                    vec![
                                        ("trace", trace.as_u64().into()),
                                        ("hop", (copy.hops + 1).into()),
                                        ("from", copy.holder.0.into()),
                                        ("to", attempt.target.0.into()),
                                        (
                                            "latency_us",
                                            attempt.latency.map_or(0, |l| l.as_micros()).into(),
                                        ),
                                    ],
                                );
                            }
                        }
                    }
                    if keeps {
                        survivors.push(copy.clone());
                    }
                }
            }
        }
        survivors.append(&mut new_copies);
        self.copies = survivors;
        let mut survivors = copies;
        survivors.clear();
        self.scratch = RoundScratch { outcomes, attempts, hops, survivors, new_copies };
        // One time-series sample per round (no-op unless the recorder's
        // windowed mode is enabled). Deep-footprint gauges ride the tick;
        // they are derived from lengths and capacities only — never
        // allocator state — so the exported series is deterministic. The
        // gauges only ever surface through the time series, so they are
        // computed only when it is armed — `rec.mem_bytes()` walks the
        // retained events, and paying that every round on a plain traced
        // run would be pure overhead.
        if let Some(rec) = reborrow(&mut rec) {
            if rec.timeseries().is_some() {
                use vc_obs::MemSize;
                let fleet = self.scenario.fleet.heap_bytes() + self.scenario.roadnet.heap_bytes();
                let net = self.heap_bytes();
                let obs = rec.mem_bytes();
                let hub = rec.hub_mut();
                hub.gauge_set("mem.fleet.bytes", fleet as f64);
                hub.gauge_set("mem.net.bytes", net as f64);
                hub.gauge_set("mem.obs.bytes", obs as f64);
            }
            rec.timeseries_tick(now);
        }
    }

    /// Mutable access to the underlying scenario (for failure injection
    /// between rounds: taking vehicles offline, failing RSUs).
    pub fn scenario_mut(&mut self) -> &mut Scenario {
        self.scenario
    }

    /// Statistics so far.
    pub fn stats(&self) -> &RoutingStats {
        &self.stats
    }

    /// Consumes the sim, returning final statistics.
    pub fn into_stats(self) -> RoutingStats {
        self.stats
    }

    /// Number of live copies. Statistics and recorder events come only
    /// from live copies, so once this is 0 and nothing more is sent, no
    /// later round changes [`NetSim::stats`] or records an event (an armed
    /// time series still takes its per-round sample).
    /// `vc_service::job::run_job` ends a job there.
    pub fn live_copies(&self) -> usize {
        self.copies.len()
    }

    /// Deep heap footprint of the network layer's own state — packet
    /// states (including carried-by sets), live copies, per-delivery
    /// statistics, the round's working buffers, the neighbor table, and the
    /// spatial grid — in bytes.
    ///
    /// Derived from lengths and capacities only, never from allocator
    /// state, so the value is a deterministic function of the run.
    pub fn heap_bytes(&self) -> u64 {
        use std::mem::size_of;
        let packets = (self.packets.capacity() * size_of::<PacketState>()) as u64
            + self.packets.iter().map(|s| s.carried.heap_bytes()).sum::<u64>();
        let copies = (self.copies.capacity() * size_of::<Copy>()) as u64;
        let stats = (self.stats.latencies_s.capacity() * size_of::<f64>()) as u64
            + (self.stats.hops.capacity() * size_of::<u32>()) as u64;
        packets
            + copies
            + stats
            + self.scratch.heap_bytes()
            + self.table.heap_bytes()
            + self.grid.heap_bytes()
    }
}

/// Records one transmission attempt's event pair: `radio.tx` for the
/// attempt, then `radio.rx` (with latency) or `radio.drop`.
fn record_attempt(rec: &mut Recorder, now: SimTime, attempt: &Attempt) {
    rec.event(
        now,
        "sim",
        "radio.tx",
        vec![("bytes", attempt.bytes.into()), ("contenders", attempt.contenders.into())],
    );
    match attempt.latency {
        Some(latency) => {
            rec.event(now, "sim", "radio.rx", vec![("latency_us", latency.as_micros().into())]);
        }
        None => rec.event(now, "sim", "radio.drop", vec![("dist_m", attempt.dist_m.into())]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{ClusterRouting, Epidemic, GreedyGeo, MozoRouting};
    use vc_sim::scenario::ScenarioBuilder;

    fn dense_urban(seed: u64, n: usize) -> vc_sim::scenario::Scenario {
        let mut b = ScenarioBuilder::new();
        b.seed(seed).vehicles(n);
        b.urban_with_rsus()
    }

    #[test]
    fn epidemic_delivers_in_connected_network() {
        let mut scenario = dense_urban(1, 60);
        let mut sim = NetSim::new(&mut scenario, Epidemic);
        sim.send_random_pairs(20, 256, None);
        sim.run_rounds(120);
        let stats = sim.stats();
        assert!(stats.delivery_ratio() > 0.8, "epidemic ratio {}", stats.delivery_ratio());
        assert!(stats.transmissions > stats.delivered, "flooding has overhead");
    }

    #[test]
    fn greedy_delivers_some_with_less_overhead_than_epidemic() {
        let mut s1 = dense_urban(2, 60);
        let mut epi = NetSim::new(&mut s1, Epidemic);
        epi.send_random_pairs(20, 256, None);
        epi.run_rounds(120);
        let e = epi.into_stats();

        let mut s2 = dense_urban(2, 60);
        let mut gre = NetSim::new(&mut s2, GreedyGeo);
        gre.send_random_pairs(20, 256, None);
        gre.run_rounds(120);
        let g = gre.into_stats();

        assert!(g.delivered > 0, "greedy delivered nothing");
        assert!(
            g.transmissions < e.transmissions,
            "greedy {} vs epidemic {} transmissions",
            g.transmissions,
            e.transmissions
        );
    }

    #[test]
    fn cluster_delivers() {
        let mut s = dense_urban(3, 60);
        let mut sim = NetSim::new(&mut s, ClusterRouting::new());
        sim.send_random_pairs(20, 256, None);
        sim.run_rounds(120);
        let stats = sim.into_stats();
        assert!(stats.delivered > 5, "cluster delivered only {}", stats.delivered);
    }

    #[test]
    fn mozo_delivers() {
        let mut s = dense_urban(3, 60);
        let mut sim = NetSim::new(&mut s, MozoRouting::new());
        sim.send_random_pairs(20, 256, None);
        sim.run_rounds(120);
        let stats = sim.into_stats();
        assert!(stats.delivered > 5, "mozo delivered only {}", stats.delivered);
    }

    #[test]
    fn delivery_to_self_neighborhood_is_fast() {
        // src and dst adjacent in a parking lot: first round should deliver.
        let mut b = ScenarioBuilder::new();
        b.seed(4).vehicles(10);
        let mut scenario = b.parking_lot();
        let mut sim = NetSim::new(&mut scenario, GreedyGeo);
        sim.send(VehicleId(0), VehicleId(1), 128);
        sim.run_rounds(5);
        assert_eq!(sim.stats().delivered, 1);
        assert_eq!(sim.stats().hops, vec![1]);
    }

    #[test]
    fn stats_account_for_losses() {
        // Two isolated vehicles far apart: nothing delivers.
        let mut b = ScenarioBuilder::new();
        b.seed(5).vehicles(2);
        let mut scenario = b.highway_no_infra();
        // Force them far apart.
        scenario.fleet.set_online(VehicleId(0), true);
        let mut sim = NetSim::new(&mut scenario, GreedyGeo);
        sim.send(VehicleId(0), VehicleId(1), 128);
        sim.run_rounds(3);
        assert_eq!(sim.stats().sent, 1);
    }

    #[test]
    fn instrumented_run_matches_plain_and_emits_events() {
        let run_plain = || {
            let mut scenario = dense_urban(8, 40);
            let mut sim = NetSim::new(&mut scenario, Epidemic);
            sim.send_random_pairs(10, 128, None);
            sim.run_rounds(40);
            let s = sim.into_stats();
            (s.sent, s.delivered, s.transmissions)
        };
        let mut rec = Recorder::new();
        let run_probed = {
            let mut scenario = dense_urban(8, 40);
            let mut sim = NetSim::new(&mut scenario, Epidemic);
            sim.send_random_pairs(10, 128, None);
            sim.run_rounds_obs(40, Some(&mut rec));
            let s = sim.into_stats();
            (s.sent, s.delivered, s.transmissions)
        };
        assert_eq!(run_plain(), run_probed, "tracing must not perturb the run");
        // Radio events cover every transmission; routing events cover
        // deliveries and forwards.
        let (_, delivered, transmissions) = run_probed;
        assert_eq!(rec.hub().counter("sim.radio.tx"), transmissions);
        assert_eq!(rec.hub().counter("net.routing.deliver"), delivered);
        assert!(rec.hub().counter("net.routing.forward") > 0);
    }

    #[test]
    fn deterministic_runs() {
        let run = |seed| {
            let mut scenario = dense_urban(seed, 40);
            let mut sim = NetSim::new(&mut scenario, Epidemic);
            sim.send_random_pairs(10, 128, None);
            sim.run_rounds(60);
            let s = sim.into_stats();
            (s.delivered, s.transmissions)
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn causal_tracing_does_not_perturb_the_run() {
        let run = |traced: bool, rec: Option<&mut Recorder>| {
            let mut scenario = dense_urban(9, 40);
            let mut sim = NetSim::new(&mut scenario, Epidemic);
            if traced {
                sim.set_sampler(Sampler::new(9));
            }
            let mut rec = rec;
            sim.send_random_pairs(10, 128, reborrow(&mut rec));
            sim.run_rounds_obs(40, rec);
            let s = sim.into_stats();
            let lat_bits: Vec<u64> = s.latencies_s.iter().map(|l| l.to_bits()).collect();
            (s.sent, s.delivered, s.transmissions, s.hops, lat_bits)
        };
        let plain = run(false, None);
        let mut rec = Recorder::new();
        assert_eq!(run(true, Some(&mut rec)), plain, "causal tracing must not perturb the run");
        assert!(rec.hub().counter("net.causal.origin") > 0);

        // Off is inert: a recorder-attached run without a sampler records
        // events but no causal one.
        let mut rec = Recorder::new();
        assert_eq!(run(false, Some(&mut rec)), plain, "recording must not perturb the run");
        assert!(!rec.is_empty());
        let causal: u64 = ["origin", "hop", "deliver", "drop"]
            .iter()
            .map(|k| rec.hub().counter(&format!("net.causal.{k}")))
            .sum();
        assert_eq!(causal, 0, "tracing off must emit no causal event");
    }

    #[test]
    fn causal_chains_cover_every_sampled_packet() {
        let mut scenario = dense_urban(12, 60);
        let mut sim = NetSim::new(&mut scenario, Epidemic);
        sim.set_sampler(Sampler::new(12));
        let mut rec = Recorder::new();
        sim.send_random_pairs(20, 128, Some(&mut rec));
        sim.run_rounds_obs(80, Some(&mut rec));
        let stats = sim.into_stats();
        // At rate 1 every packet opens a chain and every delivery closes one.
        assert_eq!(rec.hub().counter("net.causal.origin"), stats.sent);
        assert_eq!(rec.hub().counter("net.causal.deliver"), stats.delivered);
        // Every causal event's trace id refers back to an emitted origin.
        let origins: std::collections::HashSet<u64> = rec
            .events()
            .filter(|e| e.kind == "causal.origin")
            .filter_map(|e| e.fields.iter().find(|(k, _)| *k == "trace"))
            .filter_map(|(_, v)| match v {
                vc_obs::Value::U64(t) => Some(*t),
                _ => None,
            })
            .collect();
        for event in rec.events().filter(|e| e.kind.starts_with("causal.")) {
            let Some((_, vc_obs::Value::U64(trace))) =
                event.fields.iter().find(|(k, _)| *k == "trace")
            else {
                panic!("{} missing trace field", event.kind);
            };
            assert!(origins.contains(trace), "{} orphaned trace {trace}", event.kind);
        }
    }

    /// SHA-256 of the JSONL trace of
    /// `offline_holders_drop_traced_copies_and_delivered_copies_die_silently`.
    const DROP_TRACE_SHA256: &str =
        "2e953d6129f314a0d234e6963ee23a657012859f17679afb1b992eaaf7318c81";

    #[test]
    fn offline_holders_drop_traced_copies_and_delivered_copies_die_silently() {
        let mut scenario = dense_urban(21, 60);
        let mut sim = NetSim::new(&mut scenario, Epidemic);
        sim.set_sampler(Sampler::new(21));
        let mut rec = Recorder::new();
        sim.send_random_pairs(20, 128, Some(&mut rec));
        sim.run_rounds_obs(4, Some(&mut rec));
        let u64_field = |e: &vc_obs::Event, key: &str| {
            e.fields.iter().find_map(|(k, v)| match v {
                vc_obs::Value::U64(x) if *k == key => Some(*x),
                _ => None,
            })
        };
        let (mut dropped, mut silent) = (0, 0);
        for _ in 0..6 {
            // Take the holders of every fifth live copy offline between rounds.
            let victims: Vec<VehicleId> = sim.copies.iter().step_by(5).map(|c| c.holder).collect();
            for &v in &victims {
                sim.scenario_mut().fleet.set_online(v, false);
            }
            let mut expected = Vec::new();
            for copy in sim.copies.iter().filter(|c| victims.contains(&c.holder)) {
                let state = &sim.packets[copy.packet_idx];
                if state.delivered {
                    silent += 1;
                } else {
                    let trace = state.packet.trace.expect("rate 1 traces every packet");
                    expected.push((trace.as_u64(), u64::from(copy.holder.0)));
                }
            }
            let seen = rec.len();
            sim.run_rounds_obs(1, Some(&mut rec));
            let mut drops: Vec<(u64, u64)> = rec
                .events()
                .skip(seen)
                .filter(|e| e.kind == "causal.drop")
                .map(|e| (u64_field(e, "trace").unwrap(), u64_field(e, "holder").unwrap()))
                .collect();
            drops.sort_unstable();
            expected.sort_unstable();
            assert_eq!(drops, expected, "one drop per undelivered copy on an offline holder");
            dropped += expected.len();
        }
        assert!(dropped > 0 && silent > 0, "{dropped} drops, {silent} silent deaths");
        assert_eq!(rec.hub().counter("net.causal.drop"), dropped as u64);
        let mut jsonl = Vec::new();
        rec.write_jsonl(&mut jsonl).expect("serialize trace");
        let hex: String =
            vc_crypto::sha256::sha256(&jsonl).iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, DROP_TRACE_SHA256, "the trace's bytes changed");
    }

    #[test]
    fn mem_gauges_ride_only_an_armed_timeseries() {
        let run = |armed: bool| {
            let mut scenario = dense_urban(11, 60);
            let mut sim = NetSim::new(&mut scenario, Epidemic);
            let mut rec = Recorder::new();
            if armed {
                rec.enable_timeseries(64);
            }
            sim.send_random_pairs(10, 128, Some(&mut rec));
            sim.run_rounds_obs(10, Some(&mut rec));
            assert!(sim.heap_bytes() > 0, "a live sim owns heap");
            rec.hub().gauges().map(|(k, _)| k.to_owned()).collect::<Vec<_>>()
        };
        let armed = run(true);
        for name in ["mem.fleet.bytes", "mem.net.bytes", "mem.obs.bytes"] {
            assert!(armed.iter().any(|k| k == name), "missing gauge {name}");
        }
        assert!(!run(false).iter().any(|k| k.starts_with("mem.")), "gauges without a series");
    }
}
