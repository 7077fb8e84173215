//! Cell-centered grid variables.

use crate::index::IntVector;
use crate::region::Region;
use std::ops::{Index, IndexMut};

/// A cell-centered variable over a region (Uintah's `CCVariable<T>`).
///
/// The backing region may include ghost cells: a patch task allocates its
/// variable over `patch.with_ghosts(g)` and the data warehouse fills the halo
/// from neighbouring patches. Storage is a dense x-fastest array.
#[derive(Clone, Debug, PartialEq)]
pub struct CcVariable<T> {
    region: Region,
    data: Vec<T>,
}

impl<T: Clone + Default> CcVariable<T> {
    /// Allocate over `region`, default-initialized.
    pub fn new(region: Region) -> Self {
        Self {
            region,
            data: vec![T::default(); region.volume()],
        }
    }

    /// Allocate over `region`, filled with `value`.
    pub fn filled(region: Region, value: T) -> Self {
        Self {
            region,
            data: vec![value; region.volume()],
        }
    }
}

impl<T> CcVariable<T> {
    /// Build from raw storage; `data.len()` must equal `region.volume()`.
    pub fn from_vec(region: Region, data: Vec<T>) -> Self {
        assert_eq!(data.len(), region.volume(), "data/region size mismatch");
        Self { region, data }
    }

    #[inline]
    pub fn region(&self) -> Region {
        self.region
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Checked access.
    #[inline]
    pub fn get(&self, c: IntVector) -> Option<&T> {
        if self.region.contains(c) {
            Some(&self.data[self.region.linear_index(c)])
        } else {
            None
        }
    }

    /// Fill the variable by evaluating `f` at every cell.
    pub fn fill_with(&mut self, mut f: impl FnMut(IntVector) -> T) {
        for (i, c) in self.region.cells().enumerate() {
            self.data[i] = f(c);
        }
    }

    /// Iterate `(cell, &value)`.
    pub fn iter(&self) -> impl Iterator<Item = (IntVector, &T)> {
        self.region.cells().zip(self.data.iter())
    }

    /// Size of the payload in bytes.
    pub(crate) fn size_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>()
    }

    /// Consume the variable, returning its backing storage (for recycling
    /// into a buffer pool at timestep boundaries).
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }
}

impl<T: Copy> CcVariable<T> {
    /// Copy the cells of `window ∩ self.region ∩ src.region` from `src`.
    /// Returns the number of cells copied. Used for ghost-cell gathers and
    /// message unpacking.
    pub fn copy_window(&mut self, src: &CcVariable<T>, window: &Region) -> usize {
        let w = window.intersect(&self.region).intersect(&src.region);
        if w.is_empty() {
            return 0;
        }
        // Copy x-rows at a time for efficiency.
        let mut n = 0;
        for z in w.lo().z..w.hi().z {
            for y in w.lo().y..w.hi().y {
                let lo = IntVector::new(w.lo().x, y, z);
                let row = w.extent().x as usize;
                let di = self.region.linear_index(lo);
                let si = src.region.linear_index(lo);
                self.data[di..di + row].copy_from_slice(&src.data[si..si + row]);
                n += row;
            }
        }
        n
    }

    /// Pack `window ∩ self.region` into a flat buffer (message payload).
    pub fn pack_window(&self, window: &Region) -> (Region, Vec<T>) {
        let w = window.intersect(&self.region);
        let mut out = Vec::with_capacity(w.volume());
        for z in w.lo().z..w.hi().z {
            for y in w.lo().y..w.hi().y {
                let lo = IntVector::new(w.lo().x, y, z);
                let row = w.extent().x as usize;
                let si = self.region.linear_index(lo);
                out.extend_from_slice(&self.data[si..si + row]);
            }
        }
        (w, out)
    }

    /// Unpack a buffer produced by [`Self::pack_window`] into this variable.
    pub fn unpack_window(&mut self, window: &Region, buf: &[T]) {
        assert_eq!(buf.len(), window.volume(), "packed buffer size mismatch");
        let mut si = 0;
        for z in window.lo().z..window.hi().z {
            for y in window.lo().y..window.hi().y {
                let lo = IntVector::new(window.lo().x, y, z);
                let row = window.extent().x as usize;
                let w = window.intersect(&self.region);
                if w.contains(lo) || self.region.contains(lo) {
                    let di = self.region.linear_index(lo);
                    self.data[di..di + row].copy_from_slice(&buf[si..si + row]);
                }
                si += row;
            }
        }
    }
}

/// A dynamically-typed cell-centered field, the currency of the data
/// warehouses (host and GPU). RMCRT needs `f64` fields (`abskg`, `sigmaT4`,
/// `divQ`) and the `u8` `cellType` flag field.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldData {
    F64(CcVariable<f64>),
    U8(CcVariable<u8>),
}

impl FieldData {
    pub fn region(&self) -> Region {
        match self {
            FieldData::F64(v) => v.region(),
            FieldData::U8(v) => v.region(),
        }
    }

    pub fn size_bytes(&self) -> usize {
        match self {
            FieldData::F64(v) => v.size_bytes(),
            FieldData::U8(v) => v.size_bytes(),
        }
    }

    /// View as `f64`; panics on type mismatch (an application task-
    /// declaration error).
    pub fn as_f64(&self) -> &CcVariable<f64> {
        match self {
            FieldData::F64(v) => v,
            FieldData::U8(_) => panic!("field is u8, requested f64"),
        }
    }

    pub fn as_u8(&self) -> &CcVariable<u8> {
        match self {
            FieldData::U8(v) => v,
            FieldData::F64(_) => panic!("field is f64, requested u8"),
        }
    }

    /// Whether two fields hold the same type, region and bits. The compare
    /// is bitwise, so equal NaNs are equal.
    ///
    /// Revalidates persistent device-resident level replicas: an unchanged
    /// replica compares equal and costs no PCIe traffic.
    pub fn bits_equal(&self, other: &FieldData) -> bool {
        match (self, other) {
            (FieldData::F64(a), FieldData::F64(b)) => {
                a.region() == b.region()
                    && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (FieldData::U8(a), FieldData::U8(b)) => a.region() == b.region() && a.as_slice() == b.as_slice(),
            _ => false,
        }
    }
}

impl From<CcVariable<f64>> for FieldData {
    fn from(v: CcVariable<f64>) -> Self {
        FieldData::F64(v)
    }
}

impl From<CcVariable<u8>> for FieldData {
    fn from(v: CcVariable<u8>) -> Self {
        FieldData::U8(v)
    }
}

impl<T> Index<IntVector> for CcVariable<T> {
    type Output = T;
    #[inline]
    fn index(&self, c: IntVector) -> &T {
        &self.data[self.region.linear_index(c)]
    }
}

impl<T> IndexMut<IntVector> for CcVariable<T> {
    #[inline]
    fn index_mut(&mut self, c: IntVector) -> &mut T {
        let i = self.region.linear_index(c);
        &mut self.data[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_index() {
        let r = Region::cube(4);
        let mut v = CcVariable::<f64>::new(r);
        assert_eq!(v.len(), 64);
        v[IntVector::new(1, 2, 3)] = 42.0;
        assert_eq!(v[IntVector::new(1, 2, 3)], 42.0);
        assert_eq!(v.get(IntVector::splat(9)), None);
        assert_eq!(*v.get(IntVector::new(1, 2, 3)).unwrap(), 42.0);
    }

    #[test]
    fn fill_with_cell_function() {
        let r = Region::cube(3);
        let mut v = CcVariable::<i32>::new(r);
        v.fill_with(|c| c.x + 10 * c.y + 100 * c.z);
        assert_eq!(v[IntVector::new(2, 1, 0)], 12);
        assert_eq!(v[IntVector::new(0, 2, 2)], 220);
    }

    #[test]
    fn copy_window_ghost_gather() {
        // Destination with 1 ghost layer around [0,4)^3.
        let mut dst = CcVariable::<f64>::new(Region::cube(4).grown(1));
        // Source patch to the +x side: [4,8) x [0,4) x [0,4).
        let src_r = Region::new(IntVector::new(4, 0, 0), IntVector::new(8, 4, 4));
        let mut src = CcVariable::<f64>::new(src_r);
        src.fill_with(|c| (c.x * 100 + c.y * 10 + c.z) as f64);
        let copied = dst.copy_window(&src, &dst.region());
        assert_eq!(copied, 16); // the x=4 ghost face: 1 x 4 x 4
        assert_eq!(dst[IntVector::new(4, 2, 3)], 423.0);
        // Untouched interior stays default.
        assert_eq!(dst[IntVector::new(0, 0, 0)], 0.0);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let r = Region::cube(6);
        let mut a = CcVariable::<u32>::new(r);
        a.fill_with(|c| (c.x + 7 * c.y + 41 * c.z) as u32);
        let w = Region::new(IntVector::new(1, 2, 0), IntVector::new(5, 6, 3));
        let (wr, buf) = a.pack_window(&w);
        assert_eq!(wr, w);
        assert_eq!(buf.len(), w.volume());
        let mut b = CcVariable::<u32>::new(r);
        b.unpack_window(&wr, &buf);
        for c in w.cells() {
            assert_eq!(b[c], a[c]);
        }
        // Outside the window untouched.
        assert_eq!(b[IntVector::ZERO], 0);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn from_vec_size_checked() {
        CcVariable::from_vec(Region::cube(2), vec![0.0f64; 7]);
    }

    #[test]
    fn size_bytes() {
        let v = CcVariable::<f64>::new(Region::cube(16));
        assert_eq!(v.size_bytes(), 16 * 16 * 16 * 8);
    }

    #[test]
    fn bits_equal_compares_type_region_and_bits() {
        let r = Region::cube(4);
        let mut a = CcVariable::<f64>::new(r);
        a.fill_with(|c| c.x as f64);
        let mut b = a.clone();
        let fa = FieldData::from(a.clone());
        assert!(fa.bits_equal(&FieldData::from(b.clone())));
        b[IntVector::new(2, 0, 3)] += 1.0;
        assert!(!fa.bits_equal(&FieldData::from(b)));
        // Shape mismatch: not equal.
        assert!(!fa.bits_equal(&FieldData::from(CcVariable::<f64>::new(Region::cube(2)))));
        // Type mismatch likewise.
        let u = CcVariable::<u8>::new(r);
        assert!(!fa.bits_equal(&FieldData::from(u.clone())));
        let mut v = u.clone();
        v[IntVector::ZERO] = 1;
        assert!(FieldData::from(u.clone()).bits_equal(&FieldData::from(u.clone())));
        assert!(!FieldData::from(u).bits_equal(&FieldData::from(v)));
        // NaN-safe: bitwise comparison treats equal NaNs as unchanged,
        // and +0.0 against -0.0 as changed.
        a[IntVector::ZERO] = f64::NAN;
        let fnan = FieldData::from(a.clone());
        assert!(fnan.bits_equal(&FieldData::from(a.clone())));
        let mut z = a.clone();
        a[IntVector::ZERO] = 0.0;
        z[IntVector::ZERO] = -0.0;
        assert!(!FieldData::from(a).bits_equal(&FieldData::from(z)));
    }
}
