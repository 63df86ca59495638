//! On-page serialization of R-tree nodes and the tree meta page.
//!
//! Every node occupies one page:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  0x4E4E5154 ("NNQT")
//! 4       2     level  (0 = leaf)
//! 6       2     entry count
//! 8       ...   entries, each 16*D + 8 bytes:
//!               D little-endian f64 lo coords,
//!               D little-endian f64 hi coords,
//!               u64 pointer (child page or record id)
//! ```
//!
//! The meta page (page 0 of the tree's storage) records the root pointer,
//! height, entry count, the configuration needed to reopen the tree, and
//! the root's MBR (coordinates as `f64` bits, lo corner then hi, like a
//! node entry's).

use crate::config::{RTreeConfig, SplitStrategy};
use crate::entry::Entry;
use crate::{RTreeError, Result};
use bytes::{Buf, BufMut};
use nnq_geom::{Point, Rect, SoaRects};
use nnq_storage::PageId;

const NODE_MAGIC: u32 = 0x4E4E_5154;
const META_MAGIC: u32 = 0x4E4E_514D;
const META_VERSION: u16 = 2;
/// Bytes of a meta page in front of the root MBR.
const META_HEADER: usize = 33;
const NODE_HEADER: usize = 8;

/// Size in bytes of one serialized entry for dimension `D`.
pub const fn entry_size(dims: usize) -> usize {
    16 * dims + 8
}

/// Maximum number of entries a node page can hold for the given page size
/// and dimensionality.
///
/// With the default 4 KiB pages and `D = 2` this is 102, giving the shallow
/// high-fanout trees typical of disk-resident spatial indexes.
pub const fn node_capacity(page_size: usize, dims: usize) -> usize {
    (page_size - NODE_HEADER) / entry_size(dims)
}

/// A decoded node as exchanged with a [`crate::NodeStore`]: its level
/// (0 = leaf) and entries.
///
/// Stores hand these out behind `Arc`s (see [`crate::NodeStore::read`]),
/// so a decoded node is immutable once published.
///
/// Alongside the entry array, every node carries a [`SoaRects`] transpose
/// of its entry MBRs, built once at construction — i.e. once per decode /
/// cache fill, not per visit. The batched distance kernels in `nnq-geom`
/// read that view; see [`RawNode::soa`].
#[derive(Clone, Debug)]
pub struct RawNode<const D: usize> {
    /// Node level (0 = leaf).
    pub level: u16,
    /// The node's entries.
    pub entries: Vec<Entry<D>>,
    /// Axis-major view of the entry MBRs, kept in sync with `entries` by
    /// construction (nodes are immutable once published).
    soa: SoaRects<D>,
}

impl<const D: usize> RawNode<D> {
    /// Builds a node, transposing the entry MBRs into the cached
    /// struct-of-arrays view.
    pub fn new(level: u16, entries: Vec<Entry<D>>) -> Self {
        let soa = SoaRects::from_rects(entries.iter().map(|e| &e.mbr));
        Self {
            level,
            entries,
            soa,
        }
    }

    /// The struct-of-arrays view of the entry MBRs, in entry order.
    #[inline]
    pub fn soa(&self) -> &SoaRects<D> {
        &self.soa
    }
}

/// Serializes a node into `page` (which must be zero-padded page bytes).
pub(crate) fn encode_node<const D: usize>(page: &mut [u8], level: u16, entries: &[Entry<D>]) {
    debug_assert!(entries.len() <= node_capacity(page.len(), D));
    debug_assert!(entries.len() <= u16::MAX as usize);
    let mut buf = &mut page[..];
    buf.put_u32_le(NODE_MAGIC);
    buf.put_u16_le(level);
    buf.put_u16_le(entries.len() as u16);
    for e in entries {
        for i in 0..D {
            buf.put_f64_le(e.mbr.lo()[i]);
        }
        for i in 0..D {
            buf.put_f64_le(e.mbr.hi()[i]);
        }
        buf.put_u64_le(e.ptr);
    }
}

/// Decodes a node from page bytes, validating the header and the MBRs.
pub(crate) fn decode_node<const D: usize>(page_id: PageId, page: &[u8]) -> Result<RawNode<D>> {
    let bad = |reason: String| RTreeError::BadNode {
        page: page_id,
        reason,
    };
    if page.len() < NODE_HEADER {
        return Err(bad("page shorter than node header".into()));
    }
    let mut buf = page;
    let magic = buf.get_u32_le();
    if magic != NODE_MAGIC {
        return Err(bad(format!("bad magic {magic:#010x}")));
    }
    let level = buf.get_u16_le();
    let count = buf.get_u16_le() as usize;
    let cap = node_capacity(page.len(), D);
    if count > cap {
        return Err(bad(format!("entry count {count} exceeds capacity {cap}")));
    }
    let mut entries = Vec::with_capacity(count);
    for idx in 0..count {
        let mut lo = [0.0; D];
        let mut hi = [0.0; D];
        for c in lo.iter_mut() {
            *c = buf.get_f64_le();
        }
        for c in hi.iter_mut() {
            *c = buf.get_f64_le();
        }
        let ptr = buf.get_u64_le();
        let ordered_and_finite = lo
            .iter()
            .zip(hi.iter())
            .all(|(l, h)| l.is_finite() && h.is_finite() && l <= h);
        if !ordered_and_finite {
            return Err(bad(format!("entry {idx} has an invalid MBR")));
        }
        let mbr = Rect::from_sorted(Point::new(lo), Point::new(hi));
        entries.push(Entry { mbr, ptr });
    }
    Ok(RawNode::new(level, entries))
}

/// Persistent metadata describing the tree.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Meta<const D: usize> {
    /// Dimensionality of the indexed rectangles.
    pub dims: u16,
    /// Root node handle ([`PageId::INVALID`] when empty).
    pub root: PageId,
    /// Number of levels; 0 means the tree is empty (no root page).
    pub height: u32,
    /// Number of data entries.
    pub count: u64,
    /// The root node's MBR, which contains everything the tree holds
    /// ([`Rect::empty`] when empty).
    pub bounds: Rect<D>,
    /// The tree's configuration.
    pub config: RTreeConfig,
}

impl<const D: usize> Meta<D> {
    /// The meta of an empty tree.
    pub(crate) fn empty(config: RTreeConfig) -> Self {
        Self {
            dims: D as u16,
            root: PageId::INVALID,
            height: 0,
            count: 0,
            bounds: Rect::empty(),
            config,
        }
    }
}

pub(crate) fn encode_meta<const D: usize>(page: &mut [u8], meta: &Meta<D>) {
    let mut buf = &mut page[..];
    buf.put_u32_le(META_MAGIC);
    buf.put_u16_le(META_VERSION);
    buf.put_u16_le(meta.dims);
    buf.put_u64_le(meta.root.0);
    buf.put_u32_le(meta.height);
    buf.put_u64_le(meta.count);
    buf.put_u8(meta.config.split as u8);
    buf.put_u8((meta.config.min_fill * 100.0).round() as u8);
    buf.put_u8((meta.config.reinsert_fraction * 100.0).round() as u8);
    buf.put_u16_le(meta.config.max_entries_override.unwrap_or(0) as u16);
    for &c in meta
        .bounds
        .lo()
        .coords()
        .iter()
        .chain(meta.bounds.hi().coords())
    {
        buf.put_f64_le(c);
    }
}

/// Decodes the meta page of a `D`-dimensional tree.
pub(crate) fn decode_meta<const D: usize>(page_id: PageId, page: &[u8]) -> Result<Meta<D>> {
    let bad = |reason: String| RTreeError::BadNode {
        page: page_id,
        reason,
    };
    if page.len() < META_HEADER + 16 * D {
        return Err(bad("page shorter than meta header".into()));
    }
    let mut buf = page;
    let magic = buf.get_u32_le();
    if magic != META_MAGIC {
        return Err(bad(format!("bad meta magic {magic:#010x}")));
    }
    let version = buf.get_u16_le();
    if version != META_VERSION {
        return Err(bad(format!("unsupported meta version {version}")));
    }
    let dims = buf.get_u16_le();
    if usize::from(dims) != D {
        return Err(bad(format!(
            "dimension mismatch: tree has {dims}, caller wants {D}"
        )));
    }
    let root = PageId(buf.get_u64_le());
    let height = buf.get_u32_le();
    let count = buf.get_u64_le();
    let split = match buf.get_u8() {
        0 => SplitStrategy::Linear,
        1 => SplitStrategy::Quadratic,
        2 => SplitStrategy::RStar,
        other => return Err(bad(format!("unknown split strategy {other}"))),
    };
    let min_fill = f64::from(buf.get_u8()) / 100.0;
    let reinsert_fraction = f64::from(buf.get_u8()) / 100.0;
    let over = buf.get_u16_le();
    let mut lo = [0.0; D];
    let mut hi = [0.0; D];
    for c in lo.iter_mut().chain(hi.iter_mut()) {
        *c = buf.get_f64_le();
    }
    let ordered_and_finite = lo
        .iter()
        .zip(&hi)
        .all(|(l, h)| l.is_finite() && h.is_finite() && l <= h);
    let bounds = if ordered_and_finite {
        Rect::from_sorted(Point::new(lo), Point::new(hi))
    } else if lo == [f64::INFINITY; D] && hi == [f64::NEG_INFINITY; D] {
        Rect::empty()
    } else {
        return Err(bad(format!("invalid root MBR {lo:?} .. {hi:?}")));
    };
    Ok(Meta {
        dims,
        root,
        height,
        count,
        bounds,
        config: RTreeConfig {
            split,
            min_fill,
            reinsert_fraction,
            max_entries_override: if over == 0 { None } else { Some(over as usize) },
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::RecordId;

    fn rect(lo: [f64; 2], hi: [f64; 2]) -> Rect<2> {
        Rect::new(Point::new(lo), Point::new(hi))
    }

    #[test]
    fn capacity_for_default_page() {
        // (4096 - 8) / 40 = 102 entries for D=2.
        assert_eq!(node_capacity(4096, 2), 102);
        // (4096 - 8) / 56 = 73 entries for D=3.
        assert_eq!(node_capacity(4096, 3), 73);
    }

    #[test]
    fn node_roundtrip() {
        let entries: Vec<Entry<2>> = (0..10)
            .map(|i| {
                let f = i as f64;
                Entry::for_record(rect([f, -f], [f + 1.0, f * 2.0]), RecordId(i * 3))
            })
            .collect();
        let mut page = vec![0u8; 1024];
        encode_node(&mut page, 3, &entries);
        let raw = decode_node::<2>(PageId(0), &page).unwrap();
        assert_eq!(raw.level, 3);
        assert_eq!(raw.entries, entries);
    }

    #[test]
    fn empty_node_roundtrip() {
        let mut page = vec![0u8; 256];
        encode_node::<2>(&mut page, 0, &[]);
        let raw = decode_node::<2>(PageId(0), &page).unwrap();
        assert_eq!(raw.level, 0);
        assert!(raw.entries.is_empty());
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let page = vec![0u8; 256];
        assert!(matches!(
            decode_node::<2>(PageId(1), &page),
            Err(RTreeError::BadNode { .. })
        ));
    }

    #[test]
    fn decode_rejects_overfull_count() {
        let mut page = vec![0u8; 256];
        encode_node::<2>(&mut page, 0, &[]);
        // Forge an impossible count.
        page[6] = 0xFF;
        page[7] = 0xFF;
        assert!(decode_node::<2>(PageId(1), &page).is_err());
    }

    #[test]
    fn decode_rejects_nan_mbr() {
        let e = Entry::for_record(rect([0.0, 0.0], [1.0, 1.0]), RecordId(1));
        let mut page = vec![0u8; 256];
        encode_node(&mut page, 0, &[e]);
        // Corrupt the first coordinate with a NaN bit pattern.
        page[8..16].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(decode_node::<2>(PageId(1), &page).is_err());
    }

    fn meta(bounds: Rect<2>) -> Meta<2> {
        Meta {
            dims: 2,
            root: PageId(17),
            height: 3,
            count: 123_456,
            bounds,
            config: RTreeConfig {
                split: SplitStrategy::RStar,
                min_fill: 0.4,
                reinsert_fraction: 0.3,
                max_entries_override: Some(16),
            },
        }
    }

    fn bound_bits(r: &Rect<2>) -> Vec<u64> {
        let coords = r.lo().coords().iter().chain(r.hi().coords());
        coords.map(|c| c.to_bits()).collect()
    }

    #[test]
    fn meta_roundtrip() {
        // A negative zero and a subnormal survive only as exact bits.
        let tiny = f64::from_bits(1);
        for bounds in [
            rect([-0.0, -3.5e300], [tiny, 7.25]),
            Rect::from_point(Point::new([1.0 / 3.0, -2.0])),
            Rect::empty(),
        ] {
            let meta = meta(bounds);
            let mut page = vec![0u8; 128];
            encode_meta(&mut page, &meta);
            let got = decode_meta::<2>(PageId(0), &page).unwrap();
            assert_eq!(got, meta);
            assert_eq!(bound_bits(&got.bounds), bound_bits(&bounds));
        }
    }

    #[test]
    fn meta_rejects_garbage() {
        let page = vec![0xAB; 64];
        assert!(decode_meta::<2>(PageId(0), &page).is_err());
    }

    #[test]
    fn meta_rejects_an_older_version_a_wrong_dimension_and_a_bad_bound() {
        let mut page = vec![0u8; 4096];
        encode_meta(&mut page, &meta(rect([0.0, 0.0], [1.0, 1.0])));
        let reason = |page: &[u8]| match decode_meta::<2>(PageId(0), page) {
            Err(RTreeError::BadNode { reason, .. }) => reason,
            other => panic!("expected a bad meta page, got {other:?}"),
        };
        // A version-1 page: the same header, no bound behind it.
        let mut v1 = page.clone();
        v1[4..6].copy_from_slice(&1u16.to_le_bytes());
        v1[META_HEADER..].fill(0);
        assert_eq!(reason(&v1), "unsupported meta version 1");
        assert!(reason(&page[..META_HEADER + 8]).contains("shorter"));
        assert!(decode_meta::<3>(PageId(0), &page).is_err());
        // A NaN corner, and inverted corners that are not the empty bound.
        let mut nan = page.clone();
        nan[META_HEADER..META_HEADER + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(reason(&nan).contains("invalid root MBR"));
        let mut inverted = page.clone();
        inverted[META_HEADER..META_HEADER + 8].copy_from_slice(&2.0f64.to_le_bytes());
        assert!(reason(&inverted).contains("invalid root MBR"));
    }
}
