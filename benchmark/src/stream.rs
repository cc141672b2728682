//! Dataset split and op-stream generation. Everything here is a pure
//! function of `(Spec, seed, client count)` and runs before the timed
//! section, so generator cost (zipf, shuffles) lands in `setup_s`.

use crate::spec::{Kind, Layout, Spec, PROBE_KEYS, SCAN_LEN};
use datasets::gen::value_for;
use datasets::rng::SplitMix64;
use workloads::Zipf;

// Op kinds. The kind fixes both the call and its one correct result, so a
// stream is two compact arrays (kind, key) and every op can be checked.
/// `get`, expecting `value_for(key)`.
pub const GET: u8 = 0;
/// `get` of a key its owner updated, expecting `updated(key)`.
pub const GET_UPD: u8 = 1;
/// `get` of a never-inserted key, expecting `None`.
pub const GET_ABSENT: u8 = 2;
/// `insert(key, value_for(key))`, expecting `Ok`.
pub const INSERT: u8 = 3;
/// `update(key, updated(key))`, expecting `Ok`.
pub const UPDATE: u8 = 4;
/// `remove`, expecting `value_for(key)`.
pub const REMOVE: u8 = 5;
/// `remove` of an updated key, expecting `updated(key)`.
pub const REMOVE_UPD: u8 = 6;
/// `scan(key, SCAN_LEN)`; `key` is a bulk key, so it is the first result.
pub const SCAN: u8 = 7;

/// The value an `UPDATE` op writes.
#[inline]
pub fn updated(key: u64) -> u64 {
    value_for(key) ^ 0xFF00
}

/// Bulk-loaded pairs and the reserve (both sorted, disjoint).
pub struct Data {
    /// Pairs handed to bulk load.
    pub bulk: Vec<(u64, u64)>,
    /// Dataset keys that are not bulk-loaded: insert targets, and absent
    /// keys for negative lookups.
    pub reserve: Vec<u64>,
}

/// One client's ops.
#[derive(Default)]
pub struct Stream {
    /// Op kind per position.
    pub kinds: Vec<u8>,
    /// Key per position.
    pub keys: Vec<u64>,
    /// A read-only stream: a client that reaches its end before the
    /// deadline starts over.
    pub replay: bool,
}

impl Stream {
    fn with_capacity(n: usize, replay: bool) -> Stream {
        Stream {
            kinds: Vec::with_capacity(n),
            keys: Vec::with_capacity(n),
            replay,
        }
    }

    fn push(&mut self, kind: u8, key: u64) {
        self.kinds.push(kind);
        self.keys.push(key);
    }

    /// Ops in the stream.
    pub fn len(&self) -> usize {
        self.keys.len()
    }
}

/// Everything a run needs, generated from the seed.
pub struct Plan {
    /// Dataset split.
    pub data: Data,
    /// Timed-section ops, one stream per client.
    pub main: Vec<Stream>,
    /// Read-only warm-up ops (uniform gets), one stream per client.
    pub warm: Vec<Stream>,
    /// Reserve keys no stream touches, for the traced run's write probe.
    pub probe_keys: Vec<u64>,
}

/// Generate and split the dataset.
pub fn make_data(spec: &Spec, seed: u64) -> Data {
    let all = datasets::generate_pairs(spec.dataset, spec.generated, seed);
    match spec.layout {
        Layout::Alternate => Data {
            bulk: all.iter().step_by(2).copied().collect(),
            reserve: all.iter().skip(1).step_by(2).map(|p| p.0).collect(),
        },
        Layout::Runs { count, len } => {
            // Run `i` starts at the (i + 1/2) / count point of the key space,
            // less half its length.
            let starts = (0..count).map(|i| (2 * i + 1) * all.len() / (2 * count) - len / 2);
            let mut bulk = Vec::with_capacity(all.len() - count * len);
            let mut reserve = Vec::with_capacity(count * len);
            let mut from = 0;
            for start in starts {
                bulk.extend_from_slice(&all[from..start]);
                reserve.extend(all[start..start + len].iter().map(|p| p.0));
                from = start + len;
            }
            bulk.extend_from_slice(&all[from..]);
            Data { bulk, reserve }
        }
    }
}

fn client_rng(seed: u64, lane: u64, client: usize) -> SplitMix64 {
    SplitMix64::new(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (lane << 32) ^ (client as u64).wrapping_mul(0x5851_F42D_4C95_7F2D),
    )
}

fn shuffle(keys: &mut [u64], rng: &mut SplitMix64) {
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
}

/// A uniformly chosen bulk key that has at least `SCAN_LEN` successors.
fn uniform_bulk(data: &Data, rng: &mut SplitMix64) -> u64 {
    let n = data.bulk.len().saturating_sub(2 * SCAN_LEN).max(1);
    data.bulk[rng.next_below(n as u64) as usize].0
}

/// Zipf rank to bulk key: a multiplicative scramble spreads the hot ranks
/// over the key space.
fn zipf_bulk(data: &Data, zipf: &Zipf, rng: &mut SplitMix64) -> u64 {
    let n = data.bulk.len().saturating_sub(2 * SCAN_LEN).max(1) as u64;
    data.bulk[(zipf.sample(rng).wrapping_mul(0x9E37_79B9_7F4A_7C15) % n) as usize].0
}

/// Split the reserve: every `stride`-th key goes to the probe, the rest
/// are dealt round-robin into `shares` disjoint shares. Each share has one
/// owner, so that owner alone decides whether one of its keys is present
/// and every op has one predictable result.
pub fn partition_reserve(reserve: &[u64], shares: usize, probes: usize) -> (Vec<Vec<u64>>, Vec<u64>) {
    let stride = (reserve.len() / (probes + 1)).max(2);
    let mut owned = vec![Vec::with_capacity(reserve.len() / shares + 1); shares];
    let mut probe = Vec::with_capacity(probes);
    let mut dealt = 0usize;
    for (i, &k) in reserve.iter().enumerate() {
        if i % stride == 0 && probe.len() < probes {
            probe.push(k);
        } else {
            owned[dealt % shares].push(k);
            dealt += 1;
        }
    }
    (owned, probe)
}

/// The workload's own op for one stream position; `None` ends the stream
/// (the writer's share of the reserve is used up).
struct Mix<'a> {
    spec: &'a Spec,
    data: &'a Data,
    zipf: Option<&'a Zipf>,
    /// Keys this client inserts, in insertion order.
    owned: &'a [u64],
    next: usize,
    /// `read_oc`: keys nobody inserts, for negative lookups.
    absent: &'a [u64],
    /// `write_mix`: this client's inserted-and-not-removed keys, with
    /// their updated flag.
    live: Vec<(u64, bool)>,
    count: usize,
}

impl Mix<'_> {
    fn insert(&mut self) -> Option<(u8, u64)> {
        let k = *self.owned.get(self.next)?;
        self.next += 1;
        Some((INSERT, k))
    }

    fn op(&mut self, rng: &mut SplitMix64) -> Option<(u8, u64)> {
        self.count += 1;
        let data = self.data;
        match self.spec.kind {
            Kind::ReadOc if self.count.is_multiple_of(20) => Some((
                GET_ABSENT,
                self.absent[rng.next_below(self.absent.len() as u64) as usize],
            )),
            Kind::ReadOc => Some((GET, uniform_bulk(data, rng))),
            Kind::ServeZipf => Some((GET, zipf_bulk(data, self.zipf?, rng))),
            Kind::WriteHot if self.count % 2 == 1 => self.insert(),
            Kind::WriteHot => Some((GET, uniform_bulk(data, rng))),
            // One get in 16 ops, so that get latency is measured on every
            // workload (about 0.3 % of this one's time).
            Kind::ScanMix if self.count.is_multiple_of(16) => Some((GET, uniform_bulk(data, rng))),
            Kind::ScanMix if rng.next_below(100) < 5 => self.insert(),
            Kind::ScanMix => Some((SCAN, uniform_bulk(data, rng))),
            Kind::WriteMix => {
                let r = rng.next_below(100);
                let pick = |rng: &mut SplitMix64, n: usize| rng.next_below(n as u64) as usize;
                if (50..90).contains(&r) {
                    let op = self.insert()?;
                    self.live.push((op.1, false));
                    Some(op)
                } else if r >= 90 && !self.live.is_empty() {
                    let i = pick(rng, self.live.len());
                    if r < 95 {
                        self.live[i].1 = true;
                        Some((UPDATE, self.live[i].0))
                    } else {
                        let (k, upd) = self.live.swap_remove(i);
                        Some((if upd { REMOVE_UPD } else { REMOVE }, k))
                    }
                } else if !self.live.is_empty() && rng.next_below(10) == 0 {
                    // One get in ten reads back this client's own writes.
                    let (k, upd) = self.live[pick(rng, self.live.len())];
                    Some((if upd { GET_UPD } else { GET }, k))
                } else {
                    Some((GET, zipf_bulk(data, self.zipf?, rng)))
                }
            }
        }
    }
}

/// Generate the dataset split and every stream. `threads` is the number
/// of client threads; streams are generated one thread per client.
pub fn make_plan(spec: &Spec, seed: u64, threads: usize) -> Plan {
    let data = make_data(spec, seed);
    let clients = spec.connections.unwrap_or(threads);
    // One share of the reserve per client; `read_oc` keeps a share that
    // nobody inserts, for its negative lookups.
    let probes = PROBE_KEYS.min(data.reserve.len() / 8);
    let (mut shares, probe_keys) = partition_reserve(&data.reserve, clients, probes);
    let absent = if spec.kind == Kind::ReadOc {
        shares[0].clone()
    } else {
        Vec::new()
    };
    let zipf = match spec.kind {
        Kind::WriteMix | Kind::ServeZipf => Some(Zipf::new(data.bulk.len() as u64, 0.99)),
        _ => None,
    };
    let (d, zipf, absent) = (&data, zipf.as_ref(), absent.as_slice());

    let mut main: Vec<Stream> = (0..clients).map(|_| Stream::default()).collect();
    std::thread::scope(|sc| {
        for (c, (out, owned)) in main.iter_mut().zip(&mut shares).enumerate() {
            sc.spawn(move || {
                let rng = &mut client_rng(seed, 1, c);
                // Writers insert their share in shuffled order.
                shuffle(owned, rng);
                let mut mix = Mix {
                    spec,
                    data: d,
                    zipf,
                    owned,
                    next: 0,
                    absent,
                    live: Vec::new(),
                    count: 0,
                };
                let mut s = Stream::with_capacity(spec.ops_per_client, spec.read_only());
                while s.len() < spec.ops_per_client {
                    let Some((kind, key)) = mix.op(rng) else {
                        break;
                    };
                    s.push(kind, key);
                }
                *out = s;
            });
        }
    });

    let warm = (0..clients)
        .map(|c| {
            let rng = &mut client_rng(seed, 2, c);
            let n = (1usize << 20).min(spec.ops_per_client);
            let mut s = Stream::with_capacity(n, true);
            for _ in 0..n {
                s.push(GET, uniform_bulk(d, rng));
            }
            s
        })
        .collect();
    Plan {
        data,
        main,
        warm,
        probe_keys,
    }
}

/// FNV-style digest of every stream of a plan (one multiply per word):
/// two runs with equal digests sent identical ops.
pub fn digest(plan: &Plan) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in plan.main.iter().chain(&plan.warm) {
        h = (h ^ s.len() as u64).wrapping_mul(PRIME);
        for (&kind, &key) in s.kinds.iter().zip(&s.keys) {
            h = (h ^ key).wrapping_mul(PRIME);
            h = (h ^ u64::from(kind)).wrapping_mul(PRIME);
        }
    }
    for &key in &plan.probe_keys {
        h = (h ^ key).wrapping_mul(PRIME);
    }
    h
}
