//! Half-open axis-aligned boxes of cells.

use crate::index::IntVector;
use std::fmt;

/// A half-open box of cell indices `[lo, hi)`.
///
/// `lo == hi` (or any axis degenerate) means the region is empty. Regions are
/// the common currency for patch extents, ghost halos, message footprints and
/// restriction windows.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Region {
    lo: IntVector,
    hi: IntVector,
}

impl Region {
    /// An empty region at the origin.
    pub(crate) const EMPTY: Region = Region {
        lo: IntVector::ZERO,
        hi: IntVector::ZERO,
    };

    /// Create `[lo, hi)`. Degenerate inputs normalize to an empty region.
    #[inline]
    pub fn new(lo: IntVector, hi: IntVector) -> Self {
        if lo.all_lt(hi) {
            Self { lo, hi }
        } else {
            Self::EMPTY
        }
    }

    /// Cube `[0, n)^3`.
    #[inline]
    pub fn cube(n: i32) -> Self {
        Self::new(IntVector::ZERO, IntVector::splat(n))
    }

    #[inline]
    pub fn lo(&self) -> IntVector {
        self.lo
    }

    #[inline]
    pub fn hi(&self) -> IntVector {
        self.hi
    }

    /// Number of cells along each axis.
    #[inline]
    pub fn extent(&self) -> IntVector {
        self.hi - self.lo
    }

    /// Total number of cells.
    #[inline]
    pub fn volume(&self) -> usize {
        if self.is_empty() {
            0
        } else {
            self.extent().volume()
        }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        !self.lo.all_lt(self.hi)
    }

    #[inline]
    pub fn contains(&self, c: IntVector) -> bool {
        self.lo.all_le(c) && c.all_lt(self.hi)
    }

    /// Expand by `g` ghost cells on every face (negative shrinks).
    #[inline]
    pub fn grown(&self, g: i32) -> Self {
        if self.is_empty() {
            *self
        } else {
            Self::new(self.lo - IntVector::splat(g), self.hi + IntVector::splat(g))
        }
    }

    /// Intersection; empty if disjoint.
    #[inline]
    pub fn intersect(&self, o: &Region) -> Region {
        Region::new(self.lo.max(o.lo), self.hi.min(o.hi))
    }

    #[inline]
    pub fn overlaps(&self, o: &Region) -> bool {
        !self.intersect(o).is_empty()
    }

    /// True if `o` lies entirely inside `self`.
    #[inline]
    pub fn contains_region(&self, o: &Region) -> bool {
        o.is_empty() || (self.lo.all_le(o.lo) && o.hi.all_le(self.hi))
    }

    /// Map to the next-coarser index space by floor division with the
    /// refinement ratio, rounding outward so the coarse region covers every
    /// fine cell.
    pub fn coarsened(&self, rr: IntVector) -> Region {
        if self.is_empty() {
            return Region::EMPTY;
        }
        let lo = self.lo.div_floor(rr);
        // hi is exclusive: coarsen hi-1 then add one.
        let hi = (self.hi - IntVector::ONE).div_floor(rr) + IntVector::ONE;
        Region::new(lo, hi)
    }

    /// Map to the next-finer index space.
    pub fn refined(&self, rr: IntVector) -> Region {
        if self.is_empty() {
            return Region::EMPTY;
        }
        Region::new(self.lo.comp_mul(rr), self.hi.comp_mul(rr))
    }

    /// Iterate all cell indices in x-fastest (Fortran-like) order, matching
    /// the linearization used by [`crate::variable::CcVariable`].
    pub fn cells(&self) -> CellIter {
        CellIter {
            region: *self,
            cur: self.lo,
            done: self.is_empty(),
        }
    }

    /// Linear offset of `c` within this region (x fastest).
    #[inline]
    pub fn linear_index(&self, c: IntVector) -> usize {
        debug_assert!(self.contains(c), "{c:?} outside {self:?}");
        let e = self.extent();
        let r = c - self.lo;
        (r.x as usize) + (e.x as usize) * ((r.y as usize) + (e.y as usize) * (r.z as usize))
    }

    /// Inverse of [`Self::linear_index`].
    #[inline]
    pub fn from_linear(&self, i: usize) -> IntVector {
        let e = self.extent();
        let ex = e.x as usize;
        let ey = e.y as usize;
        let x = (i % ex) as i32;
        let y = ((i / ex) % ey) as i32;
        let z = (i / (ex * ey)) as i32;
        self.lo + IntVector::new(x, y, z)
    }
}

impl fmt::Debug for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Region[{:?}..{:?})", self.lo, self.hi)
    }
}

/// Iterator over cells of a region in x-fastest order.
pub struct CellIter {
    region: Region,
    cur: IntVector,
    done: bool,
}

impl Iterator for CellIter {
    type Item = IntVector;

    fn next(&mut self) -> Option<IntVector> {
        if self.done {
            return None;
        }
        let out = self.cur;
        self.cur.x += 1;
        if self.cur.x == self.region.hi.x {
            self.cur.x = self.region.lo.x;
            self.cur.y += 1;
            if self.cur.y == self.region.hi.y {
                self.cur.y = self.region.lo.y;
                self.cur.z += 1;
                if self.cur.z == self.region.hi.z {
                    self.done = true;
                }
            }
        }
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.done {
            return (0, Some(0));
        }
        let e = self.region.extent();
        let consumed = self.region.linear_index(self.cur);
        let n = e.volume() - consumed;
        (n, Some(n))
    }
}

impl ExactSizeIterator for CellIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_normalizes_degenerate() {
        let r = Region::new(IntVector::splat(3), IntVector::splat(3));
        assert!(r.is_empty());
        assert_eq!(r.volume(), 0);
        let r = Region::new(IntVector::splat(5), IntVector::splat(2));
        assert!(r.is_empty());
    }

    #[test]
    fn volume_and_contains() {
        let r = Region::cube(4);
        assert_eq!(r.volume(), 64);
        assert!(r.contains(IntVector::ZERO));
        assert!(r.contains(IntVector::splat(3)));
        assert!(!r.contains(IntVector::splat(4)));
        assert!(!r.contains(IntVector::new(-1, 0, 0)));
    }

    #[test]
    fn grow_and_intersect() {
        let r = Region::cube(4).grown(1);
        assert_eq!(r.lo(), IntVector::splat(-1));
        assert_eq!(r.hi(), IntVector::splat(5));
        let s = Region::new(IntVector::splat(3), IntVector::splat(10));
        let i = r.intersect(&s);
        assert_eq!(i, Region::new(IntVector::splat(3), IntVector::splat(5)));
        assert!(r.overlaps(&s));
        let far = Region::new(IntVector::splat(100), IntVector::splat(101));
        assert!(!r.overlaps(&far));
    }

    #[test]
    fn coarsen_refine_roundtrip_covers() {
        let rr = IntVector::splat(4);
        let fine = Region::new(IntVector::new(3, 0, 5), IntVector::new(17, 8, 9));
        let coarse = fine.coarsened(rr);
        // Every fine cell's coarse parent is inside the coarsened region.
        for c in fine.cells() {
            assert!(coarse.contains(c.div_floor(rr)));
        }
        // Refining the coarse region covers the fine region.
        assert!(coarse.refined(rr).contains_region(&fine));
    }

    #[test]
    fn coarsen_exact_when_aligned() {
        let rr = IntVector::splat(4);
        let fine = Region::cube(256);
        assert_eq!(fine.coarsened(rr), Region::cube(64));
    }

    #[test]
    fn linear_index_roundtrip() {
        let r = Region::new(IntVector::new(-2, 3, 1), IntVector::new(4, 7, 6));
        for (i, c) in r.cells().enumerate() {
            assert_eq!(r.linear_index(c), i);
            assert_eq!(r.from_linear(i), c);
        }
        assert_eq!(r.cells().count(), r.volume());
    }

    #[test]
    fn cell_iter_order_x_fastest() {
        let r = Region::cube(2);
        let cells: Vec<_> = r.cells().collect();
        assert_eq!(cells[0], IntVector::new(0, 0, 0));
        assert_eq!(cells[1], IntVector::new(1, 0, 0));
        assert_eq!(cells[2], IntVector::new(0, 1, 0));
        assert_eq!(cells[4], IntVector::new(0, 0, 1));
        assert_eq!(cells.len(), 8);
    }

    #[test]
    fn exact_size_iter() {
        let r = Region::cube(3);
        let mut it = r.cells();
        assert_eq!(it.len(), 27);
        it.next();
        assert_eq!(it.len(), 26);
    }
}
