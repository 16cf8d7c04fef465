//! Characterization of the dual ring under seeded traffic: multi-hop,
//! contended flits on both rings with the delivery log on, sent at once
//! and committed ahead; fused distance-1 transits; partial drains of
//! stations that several streams share; and bulk skips up to
//! `rotation_steps`. Only the NI endpoints and the ring's clock, horizon
//! and fused-transit calls drive it. The pinned values are the ring's
//! recorded behaviour, so a change to its semantics (statistics, delivery
//! order, horizons, logged hop crossings) moves one of them.

use streamgate_ring::{CreditRx, CreditTx, Crossings, DualRing};

const NODES: usize = 7;
/// Cycles of generated traffic; the drain afterwards runs until idle.
const TRAFFIC_CYCLES: u64 = 12_000;
/// Credit window and receive buffer of every link: large enough that flow
/// control never throttles, so the ring alone shapes the traffic.
const WINDOW: u32 = 1 << 16;

/// Links `(src, dst, stream)`: data `src → dst`, credits back. Station 3
/// receives four streams, station 2 two from one source, stations 0 and 6
/// take credits for two streams each; three links are distance-1.
const LINKS: [(usize, usize, u32); 9] = [
    (0, 3, 1),
    (1, 3, 2),
    (5, 3, 3),
    (0, 5, 4),
    (2, 3, 5),
    (3, 4, 6),
    (4, 5, 7),
    (6, 2, 8),
    (6, 2, 9),
];

/// splitmix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// FNV-1a over little-endian words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// `(hop, cycle)` of every logged crossing, hop by hop, each hop's
    /// crossings in cycle order (the log keeps them in commit order).
    fn crossings(log: &Crossings) -> u64 {
        let mut d = Digest::new();
        for (hop, cycles) in log.hops.iter().enumerate() {
            let mut sorted = cycles.clone();
            sorted.sort_unstable();
            for cycle in sorted {
                d.word(hop as u64);
                d.word(cycle);
            }
        }
        d.0
    }
}

/// Everything the run pins.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// `(delivered, total_latency, max_latency, injection_stalls)` of the
    /// data and the credit ring.
    stats: [(u64, u64, u64, u64); 2],
    /// Crossings and digest of the data and the credit delivery logs.
    log: [(usize, u64); 2],
    /// Digest of every pop: cycle, link and payload, in pop order.
    rx: u64,
    /// Digest of `(cycle, rotation_steps, next_delivery_bound,
    /// multi_hop_quiet)` before every clock advance.
    horizons: u64,
    /// Clock at the end of the drain.
    end: u64,
    /// Sends, of them committed ahead, fused transits, and cycles skipped.
    counts: (u64, u64, u64, u64),
}

fn run(seed: u64) -> Outcome {
    let mut rng = Rng(seed);
    let mut ring: DualRing<u64> = DualRing::new(NODES);
    ring.enable_delivery_log();
    let mut tx: Vec<CreditTx> = LINKS
        .iter()
        .map(|&(s, d, st)| CreditTx::new(s, d, st, WINDOW))
        .collect();
    let mut rx: Vec<CreditRx<u64>> = LINKS
        .iter()
        .map(|&(s, d, st)| CreditRx::new(d, s, st, WINDOW))
        .collect();
    // Each link's sends and pops, for the in-order check.
    let mut sent: Vec<Vec<u64>> = vec![Vec::new(); LINKS.len()];
    let mut got: Vec<Vec<u64>> = vec![Vec::new(); LINKS.len()];
    // A link's sends go out in cycle order, as a tile's do, and never
    // overtake a commitment still waiting to activate: one committed for
    // cycle `a` enters the TX queue after the sends made at `a`.
    let mut last_send = [0u64; LINKS.len()];
    let mut last_ahead: [Option<u64>; LINKS.len()] = [None; LINKS.len()];
    let (mut rx_digest, mut horizons) = (Digest::new(), Digest::new());
    let (mut sends, mut ahead, mut fused, mut skipped) = (0u64, 0u64, 0u64, 0u64);

    loop {
        let now = ring.cycle();
        let traffic = now < TRAFFIC_CYCLES;
        if !traffic && ring.rotation_steps() == u64::MAX && rx.iter().all(|r| r.is_empty()) {
            // Nothing in flight or committed and every buffer empty: one
            // last poll round picks up flits delivered but not yet polled.
            let mut left = false;
            for r in rx.iter_mut() {
                r.poll_data(&mut ring);
                left |= !r.is_empty();
            }
            if !left {
                break;
            }
        }
        // Phase 0: every link, in bursts; phase 1: distance-1 links only,
        // with fused transits whenever the ring is multi-hop quiet;
        // phase 2: sparse traffic, long skips.
        let phase = (now / 256) % 3;
        for t in tx.iter_mut() {
            if rng.chance(40) {
                t.poll_credits(&mut ring);
            }
        }
        if traffic {
            for (k, &(s, d, _)) in LINKS.iter().enumerate() {
                let one_hop = (d + NODES - s) % NODES == 1;
                let (rate, burst) = match phase {
                    0 => (8, 3),
                    1 if one_hop => (30, 2),
                    1 => (0, 0),
                    _ => (1, 1),
                };
                if !rng.chance(rate) {
                    continue;
                }
                for _ in 0..1 + rng.below(burst) {
                    let mut at = if rng.chance(50) {
                        now
                    } else {
                        now + 1 + rng.below(4)
                    }
                    .max(last_send[k]);
                    if at == now && last_ahead[k].is_some_and(|a| a >= now) {
                        at += 1;
                    }
                    if at > now {
                        last_ahead[k] = Some(at);
                    }
                    last_send[k] = at;
                    let payload = (k as u64) << 32 | sent[k].len() as u64;
                    assert!(
                        tx[k].send_at(&mut ring, payload, at),
                        "window is never full"
                    );
                    sent[k].push(payload);
                    sends += 1;
                    ahead += u64::from(at > now);
                }
            }
            if phase == 1 && ring.multi_hop_quiet() && rng.chance(60) {
                for &(s, d, _) in &LINKS {
                    if (d + NODES - s) % NODES == 1 && rng.chance(50) {
                        let at = now + rng.below(6);
                        let arrival = ring.fused_data_stats(s, d, at);
                        ring.fused_credit_stats(d, s, arrival);
                        fused += 1;
                    }
                }
            }
        }
        for k in 0..LINKS.len() {
            // Partial drains: a link polls and pops only now and then.
            if !traffic || rng.chance(45) {
                rx[k].poll_data(&mut ring);
            }
            let pops = if traffic { rng.below(3) } else { u64::MAX };
            for _ in 0..pops {
                let at = if traffic { now + rng.below(3) } else { now };
                let Some(v) = rx[k].pop_at(&mut ring, at) else {
                    break;
                };
                got[k].push(v);
                rx_digest.word(now);
                rx_digest.word(k as u64);
                rx_digest.word(v);
            }
        }
        let rot = ring.rotation_steps();
        horizons.word(now);
        horizons.word(rot);
        horizons.word(ring.next_delivery_bound());
        horizons.word(u64::from(ring.multi_hop_quiet()));
        let cap = if phase == 2 || !traffic { 200 } else { 12 };
        if rot == 0 || rng.chance(30) {
            ring.step();
        } else {
            let k = 1 + rng.below(rot.min(cap));
            ring.skip(k);
            skipped += k;
        }
    }

    for k in 0..LINKS.len() {
        assert_eq!(got[k], sent[k], "link {k}: every payload arrives, in order");
        tx[k].poll_credits(&mut ring);
        assert_eq!(tx[k].credits(), WINDOW, "link {k}: every credit returns");
    }
    let log = ring.delivery_log().expect("log enabled");
    assert_eq!((log.data_dropped, log.credit_dropped), (0, 0));
    let stats = |i: usize| {
        let s = &ring.stats[i];
        (
            s.delivered,
            s.total_latency,
            s.max_latency,
            s.injection_stalls,
        )
    };
    Outcome {
        stats: [stats(0), stats(1)],
        log: [
            (log.data.len(), Digest::crossings(&log.data)),
            (log.credit.len(), Digest::crossings(&log.credit)),
        ],
        rx: rx_digest.0,
        horizons: horizons.0,
        end: ring.cycle(),
        counts: (sends, ahead, fused, skipped),
    }
}

#[test]
fn seeded_traffic_matches_the_pinned_ring_behaviour() {
    let pinned = [
        (
            1,
            Outcome {
                stats: [(10228, 59119, 175, 4325), (10228, 30697, 45, 1717)],
                log: [(17067, 7125803292021014521), (17067, 6334867200902640646)],
                rx: 17068358949603093768,
                horizons: 10701574721557986737,
                end: 12004,
                counts: (9537, 6856, 691, 5084),
            },
        ),
        (
            7,
            Outcome {
                stats: [(10435, 48057, 123, 3946), (10435, 29515, 41, 1711)],
                log: [(17391, 15381293644757753445), (17391, 15891148172760581975)],
                rx: 8332087903068196515,
                horizons: 4134018439031855858,
                end: 12006,
                counts: (9759, 7114, 676, 4720),
            },
        ),
    ];
    for (seed, want) in pinned {
        assert_eq!(run(seed), want, "seed {seed}");
    }
}
