//! The succinct binary index format (`index.bin`) — the cold-start path.
//!
//! Layout (DESIGN.md §13): a 28-byte little-endian header
//!
//! ```text
//! magic "GRNBIDX1" (8) | version u32 (4) | payload_len u64 (8) | word-wise FNV-1a checksum u64 (8)
//! ```
//!
//! followed by a checksummed payload holding exactly the index state —
//! vantage table, NB-Tree with its tombstones, threshold ladder and mutation
//! epoch — encoded for size and decode speed:
//!
//! * vantage coordinates as per-VP *columns*, each either raw f32 bit
//!   patterns or a dictionary of distinct bit patterns plus bit-packed
//!   indices (GED columns hold few distinct values, so the dictionary form
//!   usually packs a coordinate into well under a byte);
//! * NB-Tree nodes with varint fields, `(start, len)` ranges, and
//!   delta-encoded child lists; tombstone flags as a bitset;
//! * the threshold ladder as a packed `u16` count plus tagged-width floats.
//!
//! Everything decodes by slice reads (`chunks_exact` + `from_le_bytes`) into
//! in-memory structures equal to the encoded ones — coordinates and
//! thresholds round-trip bit-exactly (no lossy quantization anywhere), so a
//! loaded index answers byte-identically to the one that was saved. Vantage
//! sort orders are *not* stored: the decoded columns go to
//! [`VantageTable::from_columns`], the derivation every build uses.
//!
//! Corruption surfaces as typed [`PersistError`]s: bad or byte-swapped magic,
//! short files, checksum mismatches, and shape violations in an intact
//! payload each get their own variant, so every load site can fall back to a
//! rebuild with provenance.

use crate::nbtree::{NbTree, TreeNode};
use crate::persist::{PersistError, VERSION};
use crate::pihat::ThresholdLadder;
use graphrep_metric::VantageTable;

/// File magic: format name + major layout revision, byte-order sensitive on
/// purpose — a big-endian writer would produce these bytes reversed, which
/// the decoder reports as [`PersistError::Magic`].
pub(crate) const MAGIC: [u8; 8] = *b"GRNBIDX1";

/// Header length in bytes (magic + version + payload length + checksum).
pub(crate) const HEADER_LEN: usize = 28;

/// Word-wise FNV-1a variant over `bytes`: the FNV-1a xor/multiply round
/// applied to 8-byte little-endian words, with the sub-8-byte tail
/// zero-padded and a final round folding in the length (so payloads that
/// differ only in trailing zero bytes hash differently). Byte-serial FNV
/// costs ~1.4 ns/byte — a measurable slice of cold start on a
/// multi-kilobyte payload — while the word-wise round keeps the same
/// single-bit-flip avalanche at an eighth of the dependency chain. Tiny,
/// dependency-free, and plenty for detecting torn writes and bit rot (this
/// is an integrity check, not an authenticity one). The dataset store's
/// mutation log frames its records with the same checksum.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in chunks.by_ref() {
        h ^= u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
        h = h.wrapping_mul(PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h ^= u64::from_le_bytes(tail);
        h = h.wrapping_mul(PRIME);
    }
    h ^= bytes.len() as u64;
    h.wrapping_mul(PRIME)
}

/// The parts [`decode_index`] reassembles.
pub(crate) struct DecodedIndex {
    pub graphs: usize,
    pub epoch: u64,
    pub vantage: VantageTable,
    pub tree: NbTree,
    pub ladder: ThresholdLadder,
}

/// Serializes the persisted state to a complete `index.bin` image
/// (header + payload).
pub(crate) fn encode_index(
    epoch: u64,
    vantage: &VantageTable,
    tree: &NbTree,
    ladder: &ThresholdLadder,
) -> Vec<u8> {
    let mut w = Writer::default();
    let graphs = tree.len();
    w.varint(graphs as u64);
    w.varint(epoch);

    // Vantage table: vp ids, then one encoded coordinate column per VP.
    w.varint(vantage.num_vps() as u64);
    for &id in vantage.vp_ids() {
        w.bytes(&id.to_le_bytes());
    }
    for v in 0..vantage.num_vps() {
        encode_f32_column(&mut w, &vantage.column(v));
    }

    // NB-Tree: nodes (varint fields, (start, len) ranges, delta-coded child
    // lists), leaf order, tombstone bitset, per-node live counts.
    w.varint(tree.branching() as u64);
    w.varint(tree.nodes().len() as u64);
    for node in tree.nodes() {
        w.varint(u64::from(node.centroid));
        w.f64enc(node.radius);
        w.f64enc(node.diameter);
        w.varint(u64::from(node.start));
        w.varint(u64::from(node.end - node.start));
        w.varint(node.children.len() as u64);
        let mut prev = 0i64;
        for &c in &node.children {
            w.zigzag(i64::from(c) - prev);
            prev = i64::from(c);
        }
    }
    for &g in tree.leaf_order() {
        w.varint(u64::from(g));
    }
    let dead: Vec<bool> = tree
        .leaf_order()
        .iter()
        .map(|&g| !tree.is_live(g))
        .collect();
    w.bitset(&dead);
    for idx in 0..tree.nodes().len() as u32 {
        w.varint(u64::from(tree.node_live(idx)));
    }

    // Threshold ladder: packed u16 rung count + tagged-width thetas.
    let rungs = u16::try_from(ladder.thetas().len()).unwrap_or(u16::MAX);
    w.bytes(&rungs.to_le_bytes());
    for &t in ladder.thetas().iter().take(usize::from(rungs)) {
        w.f64enc(t);
    }

    let payload = w.buf;
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Parses a complete `index.bin` image, verifying magic, version, length,
/// and checksum before touching the payload.
pub(crate) fn decode_index(bytes: &[u8]) -> Result<DecodedIndex, PersistError> {
    if bytes.len() < HEADER_LEN {
        // Too short to even carry a header; classify by what prefix is there.
        if bytes.len() >= 8 && bytes[..8] != MAGIC {
            return Err(magic_error(&bytes[..8]));
        }
        return Err(PersistError::Truncated {
            expected: HEADER_LEN,
            got: bytes.len(),
        });
    }
    if bytes[..8] != MAGIC {
        return Err(magic_error(&bytes[..8]));
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != VERSION {
        return Err(PersistError::Version(version));
    }
    let mut len8 = [0u8; 8];
    len8.copy_from_slice(&bytes[12..20]);
    let payload_len = u64::from_le_bytes(len8) as usize;
    let mut sum8 = [0u8; 8];
    sum8.copy_from_slice(&bytes[20..28]);
    let expected_sum = u64::from_le_bytes(sum8);
    let total = HEADER_LEN
        .checked_add(payload_len)
        .ok_or(PersistError::Truncated {
            expected: usize::MAX,
            got: bytes.len(),
        })?;
    if bytes.len() < total {
        return Err(PersistError::Truncated {
            expected: total,
            got: bytes.len(),
        });
    }
    let payload = &bytes[HEADER_LEN..total];
    let got_sum = fnv1a64(payload);
    if got_sum != expected_sum {
        return Err(PersistError::Checksum {
            expected: expected_sum,
            got: got_sum,
        });
    }
    decode_payload(payload).map_err(PersistError::Corrupt)
}

fn magic_error(prefix: &[u8]) -> PersistError {
    let mut got = [0u8; 8];
    got[..prefix.len()].copy_from_slice(prefix);
    PersistError::Magic { got }
}

fn decode_payload(payload: &[u8]) -> Result<DecodedIndex, String> {
    let mut r = Reader {
        buf: payload,
        pos: 0,
    };
    let graphs = r.varint()? as usize;
    let epoch = r.varint()?;

    let num_vps = r.varint()? as usize;
    let vp_ids: Vec<u32> =
        u32s(r.take(num_vps.checked_mul(4).ok_or("vp count overflows")?)?).collect();
    // Only the raw columns are stored; the table derives its sort orders,
    // sorted coordinates and item-major rows from them exactly as a build
    // does, and checks their shape.
    let columns = (0..num_vps)
        .map(|_| decode_f32_column(&mut r, graphs))
        .collect::<Result<_, _>>()?;
    let vantage = VantageTable::from_columns(graphs, vp_ids, columns)?;

    let branching = r.varint()? as usize;
    let node_count = r.varint()? as usize;
    let mut nodes = Vec::with_capacity(node_count);
    for i in 0..node_count {
        let centroid = narrow_u32(r.varint()?, "centroid")?;
        let radius = r.f64enc()?;
        let diameter = r.f64enc()?;
        let start = narrow_u32(r.varint()?, "node start")?;
        let len = narrow_u32(r.varint()?, "node length")?;
        let end = start
            .checked_add(len)
            .ok_or_else(|| format!("node {i} range overflows"))?;
        let n_children = r.varint()? as usize;
        let mut children = Vec::with_capacity(n_children);
        let mut prev = 0i64;
        for _ in 0..n_children {
            let c = prev + r.zigzag()?;
            children
                .push(u32::try_from(c).map_err(|_| format!("node {i} child index {c} negative"))?);
            prev = c;
        }
        nodes.push(TreeNode {
            centroid,
            radius,
            diameter,
            children,
            start,
            end,
        });
    }
    let mut leaf_order = Vec::with_capacity(graphs);
    for _ in 0..graphs {
        leaf_order.push(narrow_u32(r.varint()?, "leaf id")?);
    }
    let dead_by_pos = r.bitset(graphs)?;
    let mut node_live = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        node_live.push(narrow_u32(r.varint()?, "live count")?);
    }
    let tree = NbTree::from_raw_parts(nodes, leaf_order, branching, dead_by_pos, node_live)?;

    let rung_bytes = r.take(2)?;
    let rungs = u16::from_le_bytes([rung_bytes[0], rung_bytes[1]]);
    let mut thetas = Vec::with_capacity(usize::from(rungs));
    for _ in 0..rungs {
        thetas.push(r.f64enc()?);
    }
    // `ThresholdLadder::new` sorts/dedups — a no-op on the canonical rung
    // list the encoder wrote, so the ladder round-trips bit-exactly.
    let ladder = ThresholdLadder::new(thetas);

    if r.pos != payload.len() {
        return Err(format!(
            "{} trailing payload byte(s) after a complete index",
            payload.len() - r.pos
        ));
    }
    Ok(DecodedIndex {
        graphs,
        epoch,
        vantage,
        tree,
        ladder,
    })
}

fn narrow_u32(v: u64, what: &str) -> Result<u32, String> {
    u32::try_from(v).map_err(|_| format!("{what} {v} exceeds u32"))
}

// ---------------------------------------------------------------------------
// Column codec: raw f32 bits, or dictionary + bit-packed indices.
// ---------------------------------------------------------------------------

/// Mode tag: `graphs` f32 bit patterns, 4 bytes each.
const COL_RAW: u8 = 0;
/// Mode tag: dictionary of distinct bit patterns + fixed-width packed indices.
const COL_DICT: u8 = 1;

fn encode_f32_column(w: &mut Writer, col: &[f32]) {
    let mut dict: Vec<u32> = col.iter().map(|f| f.to_bits()).collect();
    dict.sort_unstable();
    dict.dedup();
    let width = index_width(dict.len());
    let dict_cost =
        varint_len(dict.len() as u64) + 4 * dict.len() + 1 + packed_len(col.len(), width);
    if dict.len() <= usize::from(u16::MAX) + 1 && dict_cost < 4 * col.len() {
        w.byte(COL_DICT);
        w.varint(dict.len() as u64);
        for &bits in &dict {
            w.bytes(&bits.to_le_bytes());
        }
        w.byte(width);
        let indices: Vec<u32> = col
            .iter()
            .map(|f| {
                // Present by construction; `partition_point` keeps this
                // panic-free for the linter even though a miss cannot happen.
                let bits = f.to_bits();
                dict.partition_point(|&d| d < bits) as u32
            })
            .collect();
        w.packed(&indices, width);
    } else {
        w.byte(COL_RAW);
        for f in col {
            w.bytes(&f.to_bits().to_le_bytes());
        }
    }
}

/// Decodes one `n`-entry coordinate column, raw or dictionary-coded,
/// bit-exactly.
fn decode_f32_column(r: &mut Reader<'_>, n: usize) -> Result<Vec<f32>, String> {
    match r.byte()? {
        COL_RAW => Ok(f32s(
            r.take(n.checked_mul(4).ok_or("column size overflows")?)?,
        )),
        COL_DICT => {
            let dict_len = r.varint()? as usize;
            if dict_len > usize::from(u16::MAX) + 1 {
                return Err(format!("column dictionary of {dict_len} entries too large"));
            }
            let dict = f32s(r.take(dict_len.checked_mul(4).ok_or("dictionary size overflows")?)?);
            let width = r.byte()?;
            if width != index_width(dict_len) {
                return Err(format!(
                    "column index width {width} does not fit a {dict_len}-entry dictionary"
                ));
            }
            // `get` is the guard against a corrupt index stream.
            r.unpacked(n, width)?
                .into_iter()
                .map(|ix| {
                    dict.get(ix as usize).copied().ok_or_else(|| {
                        format!("column index {ix} beyond {dict_len}-entry dictionary")
                    })
                })
                .collect()
        }
        m => Err(format!("unknown column mode {m}")),
    }
}

/// Little-endian `u32`s, four bytes each.
fn u32s(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
}

/// Little-endian f32 bit patterns, four bytes each.
fn f32s(bytes: &[u8]) -> Vec<f32> {
    u32s(bytes).map(f32::from_bits).collect()
}

/// Bits needed to index a `dict_len`-entry dictionary (0 when a single entry
/// makes every index 0).
fn index_width(dict_len: usize) -> u8 {
    match dict_len.saturating_sub(1) {
        0 => 0,
        max => (64 - (max as u64).leading_zeros()) as u8,
    }
}

fn packed_len(n: usize, width: u8) -> usize {
    (n * usize::from(width)).div_ceil(8)
}

fn varint_len(mut v: u64) -> usize {
    let mut len = 1;
    while v >= 0x80 {
        v >>= 7;
        len += 1;
    }
    len
}

// ---------------------------------------------------------------------------
// Byte-level writer / reader.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn byte(&mut self, b: u8) {
        self.buf.push(b);
    }

    fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// LEB128 unsigned varint.
    fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push((v as u8) | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Zigzag-mapped signed varint (for delta sequences).
    fn zigzag(&mut self, v: i64) {
        self.varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Tagged-width float: `+∞` is tag 0 with no body (the NB-Tree root's
    /// radius/diameter), an f32-exact value is tag 1 + 4 bytes, anything
    /// else tag 2 + full 8 bytes. Bit-exact in all three cases.
    fn f64enc(&mut self, x: f64) {
        if x == f64::INFINITY {
            self.byte(0);
        } else if f64::from(x as f32) == x {
            self.byte(1);
            self.bytes(&(x as f32).to_bits().to_le_bytes());
        } else {
            self.byte(2);
            self.bytes(&x.to_le_bytes());
        }
    }

    /// Bit-packed bool array, LSB-first within each byte.
    fn bitset(&mut self, bits: &[bool]) {
        let mut acc = 0u8;
        for (i, &b) in bits.iter().enumerate() {
            if b {
                acc |= 1 << (i % 8);
            }
            if i % 8 == 7 {
                self.buf.push(acc);
                acc = 0;
            }
        }
        if !bits.len().is_multiple_of(8) {
            self.buf.push(acc);
        }
    }

    /// `width`-bit values packed LSB-first into a byte stream.
    fn packed(&mut self, values: &[u32], width: u8) {
        if width == 0 {
            return;
        }
        let mut acc = 0u64;
        let mut nbits = 0u32;
        for &v in values {
            acc |= u64::from(v) << nbits;
            nbits += u32::from(width);
            while nbits >= 8 {
                self.buf.push(acc as u8);
                acc >>= 8;
                nbits -= 8;
            }
        }
        if nbits > 0 {
            self.buf.push(acc as u8);
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                format!(
                    "payload exhausted: need {n} byte(s) at offset {}, have {}",
                    self.pos,
                    self.buf.len() - self.pos
                )
            })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn byte(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn varint(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift >= 63 && b > 1 {
                return Err("varint exceeds 64 bits".into());
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn zigzag(&mut self) -> Result<i64, String> {
        let v = self.varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    fn f64enc(&mut self) -> Result<f64, String> {
        match self.byte()? {
            0 => Ok(f64::INFINITY),
            1 => {
                let c = self.take(4)?;
                Ok(f64::from(f32::from_bits(u32::from_le_bytes([
                    c[0], c[1], c[2], c[3],
                ]))))
            }
            2 => {
                let c = self.take(8)?;
                let mut b = [0u8; 8];
                b.copy_from_slice(c);
                Ok(f64::from_le_bytes(b))
            }
            t => Err(format!("unknown float tag {t}")),
        }
    }

    fn bitset(&mut self, n: usize) -> Result<Vec<bool>, String> {
        let bytes = self.take(n.div_ceil(8))?;
        Ok((0..n).map(|i| bytes[i / 8] & (1 << (i % 8)) != 0).collect())
    }

    fn unpacked(&mut self, n: usize, width: u8) -> Result<Vec<u32>, String> {
        if width == 0 {
            return Ok(vec![0; n]);
        }
        if width > 32 {
            return Err(format!("packed index width {width} exceeds 32 bits"));
        }
        let bytes = self.take(packed_len(n, width))?;
        let mask = if width == 32 {
            u64::from(u32::MAX)
        } else {
            (1u64 << width) - 1
        };
        let mut out = Vec::with_capacity(n);
        let mut acc = 0u64;
        let mut nbits = 0u32;
        let mut next = 0usize;
        for _ in 0..n {
            while nbits < u32::from(width) {
                acc |= u64::from(bytes[next]) << nbits;
                next += 1;
                nbits += 8;
            }
            out.push((acc & mask) as u32);
            acc >>= width;
            nbits -= u32::from(width);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_and_zigzag_round_trip() {
        let mut w = Writer::default();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            w.varint(v);
        }
        let signed = [0i64, -1, 1, -64, 64, i64::MIN, i64::MAX];
        for &v in &signed {
            w.zigzag(v);
        }
        let mut r = Reader {
            buf: &w.buf,
            pos: 0,
        };
        for &v in &values {
            assert_eq!(r.varint().unwrap(), v);
        }
        for &v in &signed {
            assert_eq!(r.zigzag().unwrap(), v);
        }
        assert_eq!(r.pos, w.buf.len());
    }

    #[test]
    fn f64enc_is_bit_exact() {
        let mut w = Writer::default();
        let values = [
            0.0,
            -0.0,
            1.5,
            f64::INFINITY,
            1e30,
            0.1, // not f32-exact
            f64::from(f32::MAX),
            -3.25,
        ];
        for &v in &values {
            w.f64enc(v);
        }
        let mut r = Reader {
            buf: &w.buf,
            pos: 0,
        };
        for &v in &values {
            assert_eq!(r.f64enc().unwrap().to_bits(), v.to_bits());
        }
    }

    /// Decodes one encoded column, asserting the reader consumed it
    /// exactly.
    fn decode_one(buf: &[u8], n: usize) -> Vec<f32> {
        let mut r = Reader { buf, pos: 0 };
        let col = decode_f32_column(&mut r, n).unwrap();
        assert_eq!(r.pos, buf.len());
        col
    }

    fn bits(col: &[f32]) -> Vec<u32> {
        col.iter().map(|f| f.to_bits()).collect()
    }

    #[test]
    fn column_codec_round_trips_and_compresses_small_alphabets() {
        // Few distinct values → dictionary mode, far below 4 bytes/entry.
        let col: Vec<f32> = (0..500).map(|i| (i % 7) as f32).collect();
        let mut w = Writer::default();
        encode_f32_column(&mut w, &col);
        assert!(
            w.buf.len() < col.len(),
            "dict column should be < 1 byte/entry, got {} for {}",
            w.buf.len(),
            col.len()
        );
        assert_eq!(bits(&decode_one(&w.buf, col.len())), bits(&col));
    }

    #[test]
    fn column_codec_falls_back_to_raw_on_diverse_data() {
        // All-distinct values → dictionary would be larger than raw.
        let col: Vec<f32> = (0..100).map(|i| (i as f32).sqrt() * 1.0001).collect();
        let mut w = Writer::default();
        encode_f32_column(&mut w, &col);
        assert_eq!(w.buf[0], COL_RAW);
        assert_eq!(bits(&decode_one(&w.buf, col.len())), bits(&col));
    }

    #[test]
    fn dict_column_with_negatives_round_trips() {
        // Sign-bit values (negatives, -0.0) sort last in the bit-pattern
        // dictionary; every one must still decode to its own bits.
        let col: Vec<f32> = (0..40).map(|i| [-1.5, 2.0, -0.0, 0.0][i % 4]).collect();
        let mut w = Writer::default();
        encode_f32_column(&mut w, &col);
        assert_eq!(w.buf[0], COL_DICT);
        assert_eq!(bits(&decode_one(&w.buf, col.len())), bits(&col));
    }

    #[test]
    fn empty_and_singleton_columns() {
        for col in [vec![], vec![4.25f32], vec![4.25f32; 9]] {
            let mut w = Writer::default();
            encode_f32_column(&mut w, &col);
            assert_eq!(decode_one(&w.buf, col.len()), col);
        }
    }

    #[test]
    fn bitset_round_trips_odd_lengths() {
        for n in [0usize, 1, 7, 8, 9, 500] {
            let bits: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let mut w = Writer::default();
            w.bitset(&bits);
            let mut r = Reader {
                buf: &w.buf,
                pos: 0,
            };
            assert_eq!(r.bitset(n).unwrap(), bits);
        }
    }

    #[test]
    fn truncated_reader_is_an_error_not_a_panic() {
        let mut w = Writer::default();
        w.varint(300);
        let mut r = Reader {
            buf: &w.buf[..1],
            pos: 0,
        };
        assert!(r.varint().is_err());
    }
}
