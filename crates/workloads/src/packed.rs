//! The packed record stream behind every capture: one byte stream per
//! [`CapturedTrace`](crate::CapturedTrace), with the PCs implied.
//!
//! A captured record is a PC plus at most one dynamic payload (a
//! memory reference's address or a control transfer's next PC and
//! taken bit). Most of that is redundant: each PC follows from the
//! previous record, a record that is neither a memref nor a control
//! transfer carries no dynamic data, and addresses are mostly small
//! strides. So the stream stores the record count and the first PC,
//! and then, record by record, keyed on the record's static table
//! slot:
//!
//! - **neither a memref nor a control transfer:** nothing — the next
//!   PC is `pc + 1`;
//! - **memory reference:** one LEB128 varint of
//!   `zigzag(addr − previous memref addr)`, wrapping; the next PC is
//!   `pc + 1`;
//! - **control transfer:** one LEB128 varint of
//!   `zigzag(next_pc − pc) << 1 | taken`, wrapping in 32 bits; the
//!   next PC is `next_pc`.
//!
//! [`Packer::push`] asserts that every record's PC is its
//! predecessor's next PC; that chain is what makes the stream
//! lossless. A record costs at most ten bytes (a full-range address
//! delta), so a stream is never larger than the 16-byte records it
//! replaced; the nine kernels average 0.2–1.5 bytes per record.
//!
//! Replay walks a `Copy` [`Cursor`] of (position, pc, byte offset,
//! last address): each record is one table lookup plus at most one
//! varint read, and a replay iterator stays an `Arc` clone plus a
//! cursor.

use crate::capture::{Record, StaticOp};

/// One capture's dynamic records, packed (see the module docs).
#[derive(Debug)]
pub(crate) struct PackedStream {
    pub(crate) bytes: Vec<u8>,
    len: usize,
    first_pc: u32,
}

impl PackedStream {
    /// Number of records.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// A cursor at the first record.
    pub(crate) fn start(&self) -> Cursor {
        Cursor { pos: 0, pc: self.first_pc, off: 0, addr: 0 }
    }

    /// Every record with its slot's static op, in order.
    pub(crate) fn iter<'a>(
        &'a self,
        table: &'a [StaticOp],
    ) -> impl Iterator<Item = (Record, &'a StaticOp)> + 'a {
        let mut at = self.start();
        std::iter::from_fn(move || at.next(self, table))
    }
}

/// A replay position in a [`PackedStream`]: the index of the next
/// record, its PC, its byte offset and the last memref address.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cursor {
    pos: usize,
    pc: u32,
    off: usize,
    addr: u64,
}

impl Cursor {
    /// Index of the next record, which is also its sequence number.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Decodes the next record of `stream` and returns it with its
    /// slot's op from `table` (the table the stream was packed
    /// against), or `None` at the end.
    #[inline]
    pub(crate) fn next<'t>(
        &mut self,
        stream: &PackedStream,
        table: &'t [StaticOp],
    ) -> Option<(Record, &'t StaticOp)> {
        if self.pos == stream.len {
            return None;
        }
        let pc = self.pc;
        let op = &table[pc as usize];
        let r = if op.mem.is_some() {
            let delta = unzigzag(read_varint(&stream.bytes, &mut self.off));
            self.addr = self.addr.wrapping_add(delta);
            self.pc = pc.wrapping_add(1);
            Record { payload: self.addr, pc, taken: false }
        } else if op.branch.is_some() {
            let v = read_varint(&stream.bytes, &mut self.off);
            self.pc = pc.wrapping_add(unzigzag(v >> 1) as u32);
            Record { payload: u64::from(self.pc), pc, taken: v & 1 == 1 }
        } else {
            self.pc = pc.wrapping_add(1);
            Record { payload: 0, pc, taken: false }
        };
        self.pos += 1;
        Some((r, op))
    }
}

/// Builds a [`PackedStream`] one record at a time.
#[derive(Debug)]
pub(crate) struct Packer {
    stream: PackedStream,
    /// The PC the next record must start at.
    next_pc: u32,
    /// The last memref address, which the next memref is a delta from.
    addr: u64,
}

impl Packer {
    pub(crate) fn new() -> Packer {
        let stream = PackedStream { bytes: Vec::new(), len: 0, first_pc: 0 };
        Packer { stream, next_pc: 0, addr: 0 }
    }

    /// Appends `r`, whose slot's static op is `op`.
    ///
    /// # Panics
    ///
    /// Panics if `r.pc` is not the previous record's next PC: the
    /// stream does not store PCs, so a break in the chain would be
    /// silently lost.
    pub(crate) fn push(&mut self, r: &Record, op: &StaticOp) {
        if self.stream.len == 0 {
            self.stream.first_pc = r.pc;
            self.next_pc = r.pc;
        }
        assert_eq!(
            r.pc, self.next_pc,
            "record {} does not start at its predecessor's next PC",
            self.stream.len
        );
        if op.mem.is_some() {
            write_varint(&mut self.stream.bytes, zigzag(r.payload.wrapping_sub(self.addr)));
            self.addr = r.payload;
            self.next_pc = r.pc.wrapping_add(1);
        } else if op.branch.is_some() {
            let next_pc = r.payload as u32;
            let delta = zigzag(i64::from(next_pc.wrapping_sub(r.pc) as i32) as u64);
            write_varint(&mut self.stream.bytes, delta << 1 | u64::from(r.taken));
            self.next_pc = next_pc;
        } else {
            self.next_pc = r.pc.wrapping_add(1);
        }
        self.stream.len += 1;
    }

    /// The finished stream, holding no spare capacity.
    pub(crate) fn finish(mut self) -> PackedStream {
        self.stream.bytes.shrink_to_fit();
        self.stream
    }
}

/// Maps a two's-complement delta onto small unsigned values for small
/// magnitudes of either sign: 0, −1, 1, −2, … → 0, 1, 2, 3, ….
fn zigzag(delta: u64) -> u64 {
    delta << 1 ^ ((delta as i64) >> 63) as u64
}

/// The inverse of [`zigzag`].
fn unzigzag(z: u64) -> u64 {
    z >> 1 ^ (z & 1).wrapping_neg()
}

fn write_varint(bytes: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        bytes.push(v as u8 | 0x80);
        v >>= 7;
    }
    bytes.push(v as u8);
}

#[inline]
fn read_varint(bytes: &[u8], off: &mut usize) -> u64 {
    let mut v = 0;
    let mut shift = 0;
    loop {
        let b = bytes[*off];
        *off += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Rng;
    use clustered_emu::BranchKind;
    use clustered_isa::OpClass;

    /// The most bytes one record can take: a full-range address delta
    /// is a 64-bit varint, ten 7-bit groups.
    const MAX_RECORD_BYTES: usize = 10;

    const KINDS: [BranchKind; 6] = [
        BranchKind::Conditional,
        BranchKind::Jump,
        BranchKind::Indirect,
        BranchKind::Call,
        BranchKind::IndirectCall,
        BranchKind::Return,
    ];

    fn op(mem: Option<(u8, bool)>, branch: Option<BranchKind>) -> StaticOp {
        StaticOp { class: OpClass::IntAlu, srcs: [None; 2], dest: None, mem, branch }
    }

    /// A random table: a third each plain ops, memrefs and control
    /// transfers.
    fn random_table(rng: &mut Rng) -> Vec<StaticOp> {
        let n = 1 + rng.index(40);
        (0..n)
            .map(|_| match rng.below(3) {
                0 => op(None, None),
                1 => op(Some((8, rng.below(2) == 1)), None),
                _ => op(None, Some(KINDS[rng.index(6)])),
            })
            .collect()
    }

    /// Which edge cases the random sequences reached.
    #[derive(Default)]
    struct Seen {
        addr_zero: bool,
        addr_max: bool,
        far_up: bool,
        far_down: bool,
        backward: bool,
        forward: bool,
        to_zero: bool,
        taken_to_fall_through: bool,
        ends_on_branch: bool,
        ends_on_other: bool,
    }

    /// A random valid record sequence over `table`: every record starts
    /// at its predecessor's next PC. The sequence stops early when the
    /// next PC leaves the table; its last record may be a control
    /// transfer to any `u32`.
    fn random_records(rng: &mut Rng, table: &[StaticOp], seen: &mut Seen) -> Vec<Record> {
        let n = table.len() as u32;
        let want = rng.index(300);
        let mut records = Vec::with_capacity(want);
        let mut pc = rng.below(u64::from(n)) as u32;
        let mut addr = 0u64;
        while records.len() < want {
            let last = records.len() + 1 == want;
            let op = &table[pc as usize];
            let (r, next_pc) = if op.mem.is_some() {
                let prev = addr;
                addr = match rng.below(8) {
                    0 => 0,
                    1 => u64::MAX,
                    2 => rng.next_u64(),
                    3 => prev,
                    _ => prev.wrapping_add(rng.below(256)).wrapping_sub(128),
                };
                seen.addr_zero |= addr == 0;
                seen.addr_max |= addr == u64::MAX;
                seen.far_up |= addr.wrapping_sub(prev) > 1 << 62 && addr > prev;
                seen.far_down |= prev.wrapping_sub(addr) > 1 << 62 && addr < prev;
                (Record { payload: addr, pc, taken: false }, pc + 1)
            } else if let Some(kind) = op.branch {
                let taken = kind != BranchKind::Conditional || rng.below(2) == 1;
                let target = match rng.below(if last { 6 } else { 5 }) {
                    0 => 0,
                    1 => pc + 1,
                    2 => pc,
                    5 => rng.next_u64() as u32,
                    _ => rng.below(u64::from(n)) as u32,
                };
                let next_pc = if taken { target } else { pc + 1 };
                seen.to_zero |= next_pc == 0;
                seen.backward |= next_pc < pc;
                seen.forward |= next_pc > pc + 1;
                seen.taken_to_fall_through |= taken && next_pc == pc + 1;
                (Record { payload: u64::from(next_pc), pc, taken }, next_pc)
            } else {
                (Record { payload: 0, pc, taken: false }, pc + 1)
            };
            records.push(r);
            if next_pc >= n {
                break;
            }
            pc = next_pc;
        }
        if let Some(r) = records.last() {
            let is_branch = table[r.pc as usize].branch.is_some();
            seen.ends_on_branch |= is_branch;
            seen.ends_on_other |= !is_branch;
        }
        records
    }

    fn pack(records: &[Record], table: &[StaticOp]) -> PackedStream {
        let mut packer = Packer::new();
        for r in records {
            packer.push(r, &table[r.pc as usize]);
        }
        packer.finish()
    }

    /// Random valid sequences over random tables decode record for
    /// record to what was packed, each record within the byte ceiling,
    /// and a cursor copied mid-stream resumes exactly where it was.
    #[test]
    fn random_sequences_round_trip() {
        let mut rng = Rng::seeded(0x9e37_79b9_7f4a_7c15);
        let mut seen = Seen::default();
        for case in 0..2_000 {
            let table = random_table(&mut rng);
            let records = random_records(&mut rng, &table, &mut seen);
            let stream = pack(&records, &table);
            assert_eq!(stream.len(), records.len(), "case {case}");
            let mut at = stream.start();
            let mut resume = None;
            for (i, want) in records.iter().enumerate() {
                if i == records.len() / 2 {
                    resume = Some((at, i));
                }
                let before = at.off;
                let (got, op) = at.next(&stream, &table).expect("record missing");
                assert_eq!((got, *op), (*want, table[want.pc as usize]), "case {case}, record {i}");
                assert!(at.off - before <= MAX_RECORD_BYTES, "case {case}, record {i}");
                assert_eq!(at.pos(), i + 1);
            }
            assert!(at.next(&stream, &table).is_none(), "case {case}: stream runs past its end");
            assert_eq!(at.off, stream.bytes.len(), "case {case}: bytes left over");
            assert!(stream.bytes.len() <= MAX_RECORD_BYTES * records.len());
            if let Some((mut at, i)) = resume {
                let rest: Vec<Record> =
                    std::iter::from_fn(|| at.next(&stream, &table)).map(|(r, _)| r).collect();
                assert_eq!(rest, records[i..], "case {case}: copied cursor diverged");
            }
        }
        let Seen {
            addr_zero,
            addr_max,
            far_up,
            far_down,
            backward,
            forward,
            to_zero,
            taken_to_fall_through,
            ends_on_branch,
            ends_on_other,
        } = seen;
        assert!(addr_zero && addr_max && far_up && far_down, "address edge cases not reached");
        assert!(
            backward && forward && to_zero && taken_to_fall_through,
            "branch cases not reached"
        );
        assert!(ends_on_branch && ends_on_other, "trace endings not reached");
    }

    /// The worst cases: a full-range address delta in either direction
    /// takes the ten-byte ceiling, the largest PC delta five bytes.
    #[test]
    fn worst_case_records_fit_the_ceiling() {
        let table = [op(Some((8, false)), None), op(None, Some(BranchKind::Jump))];
        let records = [
            (Record { payload: 1 << 63, pc: 0, taken: false }, 10),
            (Record { payload: 1, pc: 1, taken: true }, 1),
            (Record { payload: 0, pc: 1, taken: true }, 1),
            (Record { payload: 0, pc: 0, taken: false }, 10),
            (Record { payload: 1 + (1 << 31), pc: 1, taken: true }, 5),
        ];
        let mut packer = Packer::new();
        for (r, bytes) in &records {
            let before = packer.stream.bytes.len();
            packer.push(r, &table[r.pc as usize]);
            assert_eq!(packer.stream.bytes.len() - before, *bytes, "{r:?}");
        }
        let stream = packer.finish();
        let got: Vec<Record> = stream.iter(&table).map(|(r, _)| r).collect();
        assert_eq!(got, records.map(|(r, _)| r));
    }

    /// A record that does not start where its predecessor went cannot
    /// be packed: the PC it would lose is not implied.
    #[test]
    #[should_panic(expected = "predecessor's next PC")]
    fn broken_pc_chain_panics() {
        let table = [op(None, None), op(None, None), op(None, None)];
        let mut packer = Packer::new();
        packer.push(&Record { payload: 0, pc: 0, taken: false }, &table[0]);
        packer.push(&Record { payload: 0, pc: 2, taken: false }, &table[2]);
    }
}
