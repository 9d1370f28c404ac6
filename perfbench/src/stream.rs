//! Seeded operation streams and the benchmark's own sequential model of
//! the served objects.
//!
//! Operations are generated on the fly from `--seed` (or into a small
//! block buffer that is then replayed), never pre-generated for a whole
//! run: a long pre-built stream falls out of cache and makes the loop
//! measure memory instead of the objects.

use apram_model::seed::split;
use apram_objects::spec::OpOutput;
use apram_serve::protocol::{OPC_READ, OPC_UPDATE};
use apram_serve::{Request, Zipfian};

/// The served objects, in table (wire-index) order.
pub const OBJECTS: [&str; 3] = ["counter", "maxreg", "lwwmap-direct"];
/// Wire index of the counter.
pub const COUNTER: u8 = 0;
/// Wire index of the max-register.
pub const MAXREG: u8 = 1;
/// Wire index of the LWW map.
pub const MAP: u8 = 2;
/// Shards per object.
pub const SHARDS: usize = 2;
/// Slots (processes) per shard memory.
pub const SLOTS: usize = 2;
/// Key slots per shard session of the map (`TableConfig::keys`).
pub const KEYS: usize = 64;
/// The table's documented key capacity: `keys × shards`.
pub const CAPACITY: u64 = (KEYS * SHARDS) as u64;
/// Keys the seeded traffic draws from (`0..DRAW_KEYS`). The last two
/// per-shard key slots are reserved for the aliasing probes, so seeded
/// traffic never lands on an aliased pair and cannot fail.
pub const DRAW_KEYS: u64 = KEYS as u64 - 2;
/// Zipfian exponent of key draws.
pub const THETA: f64 = 1.0;
/// Seeded values stay below this; probe values sit above it.
pub const VALUE_RANGE: u64 = 1_000_000;

/// The aliasing probes: key `k` and key `k + KEYS` route to the same
/// shard (`k % SHARDS`) and the same session slot (`k % KEYS`), so the
/// second put overwrites the first. One pair per shard.
pub const PROBE_PAIRS: [(u64, u64); 2] = [
    (KEYS as u64 - 2, 2 * KEYS as u64 - 2),
    (KEYS as u64 - 1, 2 * KEYS as u64 - 1),
];
/// Values the probes write (outside the seeded range).
pub const PROBE_VALUES: (u64, u64) = (VALUE_RANGE + 1, VALUE_RANGE + 2);
/// Index, within [`probe_ops`], of the op the aliasing fault makes
/// fail: the read of the first key after its alias was written.
pub const PROBE_FAILING_OP: usize = 2;

/// One wire-level operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// Object wire index.
    pub obj: u8,
    /// [`OPC_UPDATE`] or [`OPC_READ`].
    pub opcode: u8,
    /// First argument (value for maxreg updates, key for the map).
    pub a: u64,
    /// Second argument (value for map puts).
    pub b: u64,
}

impl Op {
    /// Whether this is a read.
    pub fn is_read(&self) -> bool {
        self.opcode == OPC_READ
    }

    /// The wire request carrying this op.
    pub fn request(&self) -> Request {
        Request {
            opcode: self.opcode,
            object: self.obj,
            a: self.a,
            b: self.b,
        }
    }
}

/// The four probe ops for one aliased pair: put both keys, read both.
/// Their inputs never depend on the seed.
pub fn probe_ops(pair: (u64, u64)) -> [Op; 4] {
    let put = |k, v| Op {
        obj: MAP,
        opcode: OPC_UPDATE,
        a: k,
        b: v,
    };
    let get = |k| Op {
        obj: MAP,
        opcode: OPC_READ,
        a: k,
        b: 0,
    };
    [
        put(pair.0, PROBE_VALUES.0),
        put(pair.1, PROBE_VALUES.1),
        get(pair.0),
        get(pair.1),
    ]
}

/// A seeded zipfian op stream over the three objects.
pub struct OpStream {
    rng: u64,
    zipf: Zipfian,
    keys: Vec<u64>,
}

impl OpStream {
    /// A stream for `seed`, sub-stream `stream`, drawing map keys from
    /// `keys` (zipfian over their positions: `keys[0]` is hottest).
    pub fn new(seed: u64, stream: u64, keys: Vec<u64>) -> OpStream {
        assert!(!keys.is_empty());
        OpStream {
            rng: split(seed, stream),
            zipf: Zipfian::new(keys.len() as u64, THETA),
            keys,
        }
    }

    /// A stream over every drawable key.
    pub fn all_keys(seed: u64, stream: u64) -> OpStream {
        OpStream::new(seed, stream, (0..DRAW_KEYS).collect())
    }

    fn word(&mut self) -> u64 {
        self.rng = split(self.rng, 1);
        self.rng
    }

    /// The next op: a 50/50 read/update coin when `kind` is `None`,
    /// else a read (`Some(true)`) or update (`Some(false)`).
    pub fn next_op(&mut self, kind: Option<bool>) -> Op {
        let w = self.word();
        let obj = (w % 3) as u8;
        let read = kind.unwrap_or((w >> 8) & 1 == 1);
        let opcode = if read { OPC_READ } else { OPC_UPDATE };
        let value = self.word() % VALUE_RANGE;
        match obj {
            COUNTER => Op {
                obj,
                opcode,
                a: 0,
                b: 0,
            },
            MAXREG => Op {
                obj,
                opcode,
                a: if read { 0 } else { value },
                b: 0,
            },
            _ => {
                let w = self.word();
                let rank = self.zipf.sample(w) as usize;
                Op {
                    obj,
                    opcode,
                    a: self.keys[rank],
                    b: if read { 0 } else { value },
                }
            }
        }
    }

    /// Fill `buf` with `n` ops of the given kind.
    pub fn fill(&mut self, buf: &mut Vec<Op>, n: usize, kind: Option<bool>) {
        buf.clear();
        buf.extend((0..n).map(|_| self.next_op(kind)));
    }
}

/// The sequential model of the three objects: what a linearizable,
/// fault-free table must answer to a single client.
#[derive(Clone, Debug)]
pub struct Model {
    /// Increments applied.
    pub counter: u64,
    /// Largest value written to the max-register.
    pub maxreg: Option<u64>,
    /// Map contents by key, over the whole documented capacity.
    pub map: Vec<Option<u64>>,
}

impl Default for Model {
    fn default() -> Self {
        Model {
            counter: 0,
            maxreg: None,
            map: vec![None; CAPACITY as usize],
        }
    }
}

impl Model {
    /// Apply `op` and return the output the table must produce.
    pub fn apply(&mut self, op: &Op) -> OpOutput {
        match (op.obj, op.is_read()) {
            (COUNTER, false) => {
                self.counter += 1;
                OpOutput::Val(0)
            }
            (COUNTER, true) => OpOutput::Val(self.counter),
            (MAXREG, false) => {
                self.maxreg = Some(self.maxreg.map_or(op.a, |m| m.max(op.a)));
                OpOutput::Val(0)
            }
            (MAXREG, true) => OpOutput::Opt(self.maxreg),
            (_, false) => {
                self.map[op.a as usize] = Some(op.b);
                OpOutput::Val(0)
            }
            (_, true) => OpOutput::Opt(self.map[op.a as usize]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = OpStream::all_keys(7, 1);
        let mut b = OpStream::all_keys(7, 1);
        let mut c = OpStream::all_keys(8, 1);
        let xs: Vec<Op> = (0..100).map(|_| a.next_op(None)).collect();
        let ys: Vec<Op> = (0..100).map(|_| b.next_op(None)).collect();
        let zs: Vec<Op> = (0..100).map(|_| c.next_op(None)).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn seeded_keys_never_touch_a_probe_slot() {
        let mut s = OpStream::all_keys(3, 0);
        for _ in 0..10_000 {
            let op = s.next_op(None);
            if op.obj == MAP {
                assert!(op.a < DRAW_KEYS);
                assert!(op.b < VALUE_RANGE);
            }
        }
        for (k0, k1) in PROBE_PAIRS {
            assert!(k0 >= DRAW_KEYS);
            assert_eq!(k0 % SHARDS as u64, k1 % SHARDS as u64);
            assert_eq!(k0 % KEYS as u64, k1 % KEYS as u64);
            assert!(k1 < CAPACITY);
        }
    }

    #[test]
    fn mix_is_roughly_half_reads() {
        let mut s = OpStream::all_keys(11, 0);
        let reads = (0..10_000).filter(|_| s.next_op(None).is_read()).count();
        assert!((4_500..5_500).contains(&reads), "{reads}");
    }
}
