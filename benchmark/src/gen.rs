//! The one seeded generator. A [`Mix`] names a traffic mix; from it come
//! the pinned request frames the codec and engine rungs consume, the
//! response frames that answer them, the preload stream, and — through
//! `LoadConfig.seed` — the serving workloads' traffic. The server and the
//! library only ever see what is generated here, never the seed or the
//! workload's name.

use std::time::Duration;

use proust_codec::{self as codec, op, resp};
use proust_loadgen::zipf::Zipf;
use proust_loadgen::{KeyDist, LoadConfig, Mode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A traffic mix: the same knobs `proust_loadgen` draws from, so the
/// frames pinned for the rungs and the traffic on the wire agree.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Keys per map and per ordered map.
    pub keys: u64,
    pub theta: f64,
    /// Maps, ordered maps, counters and queues of each kind.
    pub structures: usize,
    pub read_frac: f64,
    pub multi_frac: f64,
    pub multi_size: usize,
    pub inc_frac: f64,
    pub queue_frac: f64,
    pub scan_frac: f64,
    pub scan_span: u64,
}

/// 64x the 1,024-slot LAP table, so conflict-abstraction aliasing is live.
pub const KEYS: u64 = 65_536;

/// Point traffic: GET/PUT 60/40 with 10% BATCHx4, 10% INC, 10% ENQ/DEQ,
/// 5% ordered-map ops (SCANx16 and the OPUTs that feed them).
pub const POINT: Mix = Mix {
    keys: KEYS,
    theta: 0.99,
    structures: 4,
    read_frac: 0.6,
    multi_frac: 0.10,
    multi_size: 4,
    inc_frac: 0.10,
    queue_frac: 0.10,
    scan_frac: 0.05,
    scan_span: 16,
};

/// Range traffic: 60% SCANx64 + 20% OPUT on the ordered maps, 20%
/// GET-only BATCHx8 — large responses, read-only transactions beside
/// writers, no point writes at all.
pub const SCAN: Mix = Mix {
    keys: KEYS,
    theta: 0.99,
    structures: 4,
    read_frac: 1.0,
    multi_frac: 0.20,
    multi_size: 8,
    inc_frac: 0.0,
    queue_frac: 0.0,
    scan_frac: 0.80,
    scan_span: 64,
};

/// One request unit. Structures are indices; names (`m0`, `c1`, ...) are
/// attached at encode time, as the load generator names them.
#[derive(Debug, Clone, PartialEq)]
pub enum Req {
    Get(u64, u64),
    Put(u64, u64, u64),
    Del(u64, u64),
    Inc(u64, u64),
    Enq(u64, u64),
    Deq(u64),
    Oput(u64, u64, u64),
    Scan(u64, u64, u64),
    Batch(Vec<Req>),
}

impl Mix {
    /// The load generator's configuration for this mix. Everything the
    /// benchmark fixes is fixed here: binary wire, one connection per
    /// thread, counters checked, no heartbeat thread.
    pub fn load_config(&self, addr: &str, seed: u64, threads: usize, mode: Mode) -> LoadConfig {
        LoadConfig {
            addr: addr.to_string(),
            threads,
            duration: Duration::ZERO,
            mode,
            keys: self.keys,
            dist: KeyDist::Zipfian(self.theta),
            read_frac: self.read_frac,
            multi_frac: self.multi_frac,
            multi_size: self.multi_size,
            inc_frac: self.inc_frac,
            queue_frac: self.queue_frac,
            scan_frac: self.scan_frac,
            scan_span: self.scan_span,
            structures: self.structures,
            seed,
            check_counters: true,
            quiet: true,
            binary: true,
            ..LoadConfig::default()
        }
    }

    fn map_req(&self, rng: &mut StdRng, zipf: &Zipf) -> Req {
        let map = rng.gen_range(0..self.structures as u64);
        let key = zipf.next(rng);
        let roll: f64 = rng.gen();
        if roll < self.read_frac {
            Req::Get(map, key)
        } else if roll < self.read_frac + 0.8 * (1.0 - self.read_frac) {
            Req::Put(map, key, rng.gen_range(0..1_000_000u64))
        } else {
            Req::Del(map, key)
        }
    }

    /// Draw one unit, by the same rules as the load generator's workers.
    fn draw(&self, rng: &mut StdRng, zipf: &Zipf) -> Req {
        let pick: f64 = rng.gen();
        let which = rng.gen_range(0..self.structures as u64);
        let mut edge = self.multi_frac;
        if pick < edge {
            return Req::Batch((0..self.multi_size).map(|_| self.map_req(rng, zipf)).collect());
        }
        edge += self.inc_frac;
        if pick < edge {
            return Req::Inc(which, rng.gen_range(1..4u64));
        }
        edge += self.queue_frac;
        if pick < edge {
            return if rng.gen::<f64>() < 0.5 {
                Req::Enq(which, rng.gen_range(0..1_000_000u64))
            } else {
                Req::Deq(which)
            };
        }
        edge += self.scan_frac;
        if pick < edge {
            let key = zipf.next(rng);
            return if rng.gen::<f64>() < 0.25 {
                Req::Oput(which, key, rng.gen_range(0..1_000_000u64))
            } else {
                Req::Scan(which, key, key + self.scan_span)
            };
        }
        self.map_req(rng, zipf)
    }

    /// The pinned unit sequence for `seed`: same seed, same units.
    pub fn units(&self, seed: u64, count: usize) -> Vec<Req> {
        let mut rng = StdRng::seed_from_u64(seed);
        let zipf = Zipf::new(self.keys, self.theta);
        (0..count).map(|_| self.draw(&mut rng, &zipf)).collect()
    }

    /// Every key of every map and ordered map, as BATCH frames of
    /// `per_batch` puts — what `setup_s` waits for.
    pub fn preload_frames(&self, per_batch: usize) -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        for structure in 0..self.structures as u64 {
            for ordered in [false, true] {
                for lo in (0..self.keys).step_by(per_batch) {
                    let puts = (lo..(lo + per_batch as u64).min(self.keys))
                        .map(|key| {
                            if ordered {
                                Req::Oput(structure, key, key)
                            } else {
                                Req::Put(structure, key, key)
                            }
                        })
                        .collect();
                    let mut frame = Vec::new();
                    encode_request(&Req::Batch(puts), &mut frame);
                    frames.push(frame);
                }
            }
        }
        frames
    }
}

/// Append `req` as a request frame.
pub fn encode_request(req: &Req, out: &mut Vec<u8>) {
    let put = codec::put_request;
    match req {
        Req::Get(m, key) => put(out, op::MAP_GET, &format!("m{m}"), &[*key]),
        Req::Put(m, key, value) => put(out, op::MAP_PUT, &format!("m{m}"), &[*key, *value]),
        Req::Del(m, key) => put(out, op::MAP_DEL, &format!("m{m}"), &[*key]),
        Req::Inc(c, delta) => put(out, op::CTR_INC, &format!("c{c}"), &[*delta]),
        Req::Enq(q, value) => put(out, op::Q_ENQ, &format!("q{q}"), &[*value]),
        Req::Deq(q) => put(out, op::Q_DEQ, &format!("q{q}"), &[]),
        Req::Oput(o, key, value) => put(out, op::ORD_PUT, &format!("o{o}"), &[*key, *value]),
        Req::Scan(o, lo, hi) => put(out, op::ORD_SCAN, &format!("o{o}"), &[*lo, *hi]),
        Req::Batch(inner) => {
            let mut body = Vec::new();
            for req in inner {
                encode_request(req, &mut body);
            }
            codec::put_batch_request(out, inner.len() as u32, &body);
        }
    }
}

/// Append the response frame a preloaded server answers `req` with: a
/// VALUE for reads, OK for writes, a full ENTRIES for scans. `entries`
/// lends the scan results (their values do not change the encoding cost);
/// it must be at least as long as the widest scan.
pub fn encode_response(req: &Req, entries: &[(u64, u64)], out: &mut Vec<u8>) {
    match req {
        Req::Get(_, key) | Req::Deq(key) => codec::put_value(out, *key),
        Req::Put(..) | Req::Del(..) | Req::Inc(..) | Req::Enq(..) | Req::Oput(..) => {
            codec::put_status(out, resp::OK)
        }
        Req::Scan(_, lo, hi) => codec::put_entries(out, &entries[..(hi - lo) as usize]),
        Req::Batch(inner) => {
            let mut body = Vec::new();
            for req in inner {
                encode_response(req, entries, &mut body);
            }
            codec::put_batch_response(out, inner.len() as u32, &body);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_units_other_seed_other_units() {
        assert_eq!(POINT.units(42, 500), POINT.units(42, 500));
        assert_ne!(POINT.units(42, 500), POINT.units(43, 500));
    }

    #[test]
    fn mixes_hold_their_stated_shares() {
        let units = POINT.units(7, 20_000);
        let share = |pred: fn(&Req) -> bool| {
            units.iter().filter(|req| pred(req)).count() as f64 / units.len() as f64
        };
        assert!((share(|r| matches!(r, Req::Batch(_))) - 0.10).abs() < 0.01);
        assert!((share(|r| matches!(r, Req::Inc(..))) - 0.10).abs() < 0.01);
        assert!((share(|r| matches!(r, Req::Enq(..) | Req::Deq(_))) - 0.10).abs() < 0.01);
        assert!((share(|r| matches!(r, Req::Scan(..) | Req::Oput(..))) - 0.05).abs() < 0.01);

        let units = SCAN.units(7, 20_000);
        let scans = units.iter().filter(|r| matches!(r, Req::Scan(..))).count() as f64;
        let oputs = units.iter().filter(|r| matches!(r, Req::Oput(..))).count() as f64;
        assert!((scans / units.len() as f64 - 0.60).abs() < 0.01);
        assert!((oputs / units.len() as f64 - 0.20).abs() < 0.01);
        assert!(units.iter().all(|r| match r {
            Req::Batch(inner) =>
                inner.len() == 8 && inner.iter().all(|r| matches!(r, Req::Get(..))),
            Req::Scan(_, lo, hi) => hi - lo == 64,
            Req::Oput(..) => true,
            _ => false,
        }));
    }

    #[test]
    fn frames_round_trip_through_the_codec() {
        for req in POINT.units(3, 200) {
            let mut frame = Vec::new();
            encode_request(&req, &mut frame);
            let codec::Parsed::Frame { view, consumed } =
                codec::parse_frame(&frame, codec::REQ_MAGIC).unwrap()
            else {
                panic!("incomplete request frame")
            };
            assert_eq!(consumed, frame.len());
            if let Req::Batch(inner) = &req {
                assert_eq!(view.batch(codec::REQ_MAGIC).unwrap().len(), inner.len());
            }
            let mut frame = Vec::new();
            encode_response(&req, &[(0, 0); 64], &mut frame);
            assert!(matches!(
                codec::parse_frame(&frame, codec::RESP_MAGIC).unwrap(),
                codec::Parsed::Frame { .. }
            ));
        }
    }

    #[test]
    fn preload_covers_every_key_once() {
        let mix = Mix { keys: 1000, ..POINT };
        let frames = mix.preload_frames(128);
        // 4 maps + 4 ordered maps, ceil(1000 / 128) = 8 batches each.
        assert_eq!(frames.len(), 8 * 8);
        let puts: usize = frames
            .iter()
            .map(|frame| {
                let codec::Parsed::Frame { view, .. } =
                    codec::parse_frame(frame, codec::REQ_MAGIC).unwrap()
                else {
                    panic!("incomplete preload frame")
                };
                view.batch(codec::REQ_MAGIC).unwrap().len()
            })
            .sum();
        assert_eq!(puts, 8 * 1000);
    }
}
