//! Compressed spike representations for the event-driven datapath.
//!
//! A spike train after the first layer is a binary tensor that is
//! mostly zeros, so the forward kernels can be driven by *events* —
//! the positions of the 1.0 entries — instead of sweeping dense
//! buffers. This module holds the two compressed forms the event
//! kernels consume:
//!
//! * [`SpikeTensor`] — a CSR-style index of the active positions of a
//!   `[items, item_len]` batch, built once per timestep with reusable
//!   buffers (the same recycling pattern as
//!   [`crate::linalg::SpikeIndex`], which indexes a single im2col
//!   matrix for the conv backward pass rather than a whole batch).
//! * [`TouchMask`] — one byte per `(item, spatial position)` marking
//!   which output positions an event-driven convolution actually
//!   wrote, so the following LIF step can restrict its synaptic
//!   accumulation to neurons that received input.
//!
//! Building either structure is a single linear scan of the operand —
//! cheap next to the convolution it gates — and the scan doubles as
//! the *measured density* reading the sparsity-adaptive dispatcher
//! ([`crate::dispatch`]) routes on, so the dense/event decision never
//! relies on a hardcoded guess about the data.
//!
//! It also holds the one nonzero counter every spike count goes
//! through: [`count_nonzero`] over a whole slice and
//! [`count_nonzero_rows`] per batch item.

/// Result of a [`SpikeTensor::build`] scan over one batch.
///
/// The scan always runs to the end of the operand, so `nnz` and
/// `binary` are exact even when the index itself was abandoned
/// (`compressed == false`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpikeScan {
    /// Exact nonzero count of the whole batch.
    pub nnz: usize,
    /// Total element count of the batch (`items * item_len`).
    pub len: usize,
    /// Whether every entry was exactly `0.0` or `1.0`.
    pub binary: bool,
    /// Whether the index was fully populated: the operand is binary
    /// and its nonzero count stayed within the caller's bound.
    pub compressed: bool,
}

impl SpikeScan {
    /// Measured fraction of nonzero elements, in `[0, 1]` (0 for an
    /// empty operand).
    pub fn density(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.nnz as f64 / self.len as f64
        }
    }
}

/// Elements counted per block before the count is widened to `usize`.
/// A block's count is a `u32` sum of at most this many ones, so no
/// lane of the vectorized sum can overflow, on slices of any length.
const COUNT_BLOCK: usize = 1 << 30;

/// Number of elements of `x` that are `!= 0.0`: `±0.0` is not counted;
/// NaN, `±inf` and subnormals are.
///
/// Exactly `x.iter().filter(|&&v| v != 0.0).count()`, but summed in
/// `u32` instead of `usize`: each block's sum vectorizes to four `u32`
/// lanes per SSE2 register instead of two `usize` lanes, and is
/// widened once per block.
///
/// # Examples
///
/// ```
/// use snn_tensor::spike::count_nonzero;
///
/// assert_eq!(count_nonzero(&[0.0, 1.0, -0.0, f32::NAN, 0.5]), 3);
/// ```
pub fn count_nonzero(x: &[f32]) -> usize {
    x.chunks(COUNT_BLOCK)
        .map(|block| block.iter().map(|&v| u32::from(v != 0.0)).sum::<u32>() as usize)
        .sum()
}

/// Writes the [`count_nonzero`] of each of `x`'s `rows` equal rows
/// (batch items stored back to back) to `counts`, which is cleared
/// first, so a caller-owned buffer is reused across calls.
///
/// # Panics
///
/// Panics if `x` does not split into `rows` equal rows, or if a row
/// holds more than `u32::MAX` elements.
///
/// # Examples
///
/// ```
/// use snn_tensor::spike::count_nonzero_rows;
///
/// let mut counts = Vec::new();
/// count_nonzero_rows(&[1.0, 0.0, 1.0, 0.0, 0.0, 2.0], 2, &mut counts);
/// assert_eq!(counts, [2, 1]);
/// ```
pub fn count_nonzero_rows(x: &[f32], rows: usize, counts: &mut Vec<u32>) {
    counts.clear();
    if rows == 0 {
        assert!(x.is_empty(), "{} values do not split into zero rows", x.len());
        return;
    }
    assert_eq!(x.len() % rows, 0, "{} values do not split into {rows} equal rows", x.len());
    let row_len = x.len() / rows;
    assert!(u32::try_from(row_len).is_ok(), "a row of {row_len} values overflows a u32 count");
    counts.extend((0..rows).map(|i| count_nonzero(&x[i * row_len..][..row_len]) as u32));
}

/// CSR-style index of the active (1.0) positions of a binary batch.
///
/// Layout: `ptr[i]..ptr[i + 1]` brackets item `i`'s entries in `idx`;
/// each entry is a position within the flattened item
/// (`0..item_len`), ascending. Buffers are reused across
/// [`SpikeTensor::build`] calls, so a layer-owned index allocates
/// only on the first timestep of a sequence.
///
/// # Examples
///
/// ```
/// use snn_tensor::spike::SpikeTensor;
///
/// let batch = [0.0, 1.0, 0.0, 1.0, 0.0, 1.0];
/// let mut spikes = SpikeTensor::new();
/// let scan = spikes.build(&batch, 2, 3, batch.len());
/// assert!(scan.compressed);
/// assert_eq!(scan.nnz, 3);
/// assert_eq!(spikes.item(0), &[1]);
/// assert_eq!(spikes.item(1), &[0, 2]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SpikeTensor {
    ptr: Vec<u32>,
    idx: Vec<u32>,
    items: usize,
    item_len: usize,
}

impl SpikeTensor {
    /// Empty index; populated by [`SpikeTensor::build`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-indexes `values` (row-major `[items, item_len]`).
    ///
    /// The scan always measures the exact nonzero count and whether
    /// the operand is binary. The index itself is kept only while the
    /// operand stays binary and its nonzero count stays at most
    /// `max_nnz` (the density bound above which the caller's dense
    /// kernel wins anyway); past either limit the index is abandoned
    /// but the measurement continues, so the returned [`SpikeScan`]
    /// is always exact.
    ///
    /// # Panics
    ///
    /// Debug-asserts `values.len() == items * item_len`.
    pub fn build(
        &mut self,
        values: &[f32],
        items: usize,
        item_len: usize,
        max_nnz: usize,
    ) -> SpikeScan {
        debug_assert_eq!(values.len(), items * item_len);
        self.ptr.clear();
        self.idx.clear();
        self.ptr.reserve(items + 1);
        self.ptr.push(0);
        self.items = items;
        self.item_len = item_len;
        let mut nnz = 0usize;
        let mut binary = true;
        let mut compressed = true;
        for item in values.chunks_exact(item_len) {
            for (p, &v) in item.iter().enumerate() {
                if v == 0.0 {
                    continue;
                }
                nnz += 1;
                if v != 1.0 {
                    binary = false;
                    compressed = false;
                } else if compressed && self.idx.len() >= max_nnz {
                    compressed = false;
                }
                if compressed {
                    self.idx.push(p as u32);
                }
            }
            self.ptr.push(self.idx.len() as u32);
        }
        if !compressed {
            self.ptr.clear();
            self.idx.clear();
            self.items = 0;
            self.item_len = 0;
        }
        SpikeScan { nnz, len: values.len(), binary, compressed }
    }

    /// Active positions of item `i`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the last build was not
    /// compressed.
    pub fn item(&self, i: usize) -> &[u32] {
        &self.idx[self.ptr[i] as usize..self.ptr[i + 1] as usize]
    }

    /// Item count of the last compressed build (0 otherwise).
    pub fn items(&self) -> usize {
        self.items
    }

    /// Flattened item length of the last compressed build.
    pub fn item_len(&self) -> usize {
        self.item_len
    }

    /// Total active-position count held by the index.
    pub fn nnz(&self) -> usize {
        self.idx.len()
    }
}

/// One byte per `(item, spatial position)` recording which output
/// positions an event-driven kernel wrote.
///
/// The mask is plane-shaped — `[items, plane]` with `plane = out_h *
/// out_w` — because a convolution that touches spatial position `p`
/// touches it in *every* output channel (the kernel taps are shared
/// across filters). A following masked LIF step therefore only needs
/// the spatial mask plus the per-channel bias to know exactly which
/// neurons received nonzero input current.
///
/// The byte buffer is reused across [`TouchMask::reset`] calls.
#[derive(Debug, Clone, Default)]
pub struct TouchMask {
    bytes: Vec<u8>,
    items: usize,
    plane: usize,
}

impl TouchMask {
    /// Empty mask; sized by [`TouchMask::reset`] or
    /// [`TouchMask::build_from_nonzero`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Resizes to `[items, plane]`, clears every byte, and returns
    /// the raw buffer for a kernel to mark.
    pub(crate) fn reset_bytes(&mut self, items: usize, plane: usize) -> &mut [u8] {
        self.items = items;
        self.plane = plane;
        self.bytes.clear();
        self.bytes.resize(items * plane, 0);
        &mut self.bytes
    }

    /// Rebuilds the mask from a dense `[items, channels, plane]`
    /// activation buffer: position `(i, p)` is marked iff any channel
    /// of item `i` is nonzero at `p`. By construction the mask covers
    /// every position a dense kernel would have produced nonzero
    /// current at (channels driven purely by bias aside) — the
    /// invariant the masked LIF step relies on.
    ///
    /// # Panics
    ///
    /// Debug-asserts `values.len() == items * channels * plane`.
    pub fn build_from_nonzero(
        &mut self,
        values: &[f32],
        items: usize,
        channels: usize,
        plane: usize,
    ) {
        debug_assert_eq!(values.len(), items * channels * plane);
        self.reset_bytes(items, plane);
        for i in 0..items {
            let mask = &mut self.bytes[i * plane..(i + 1) * plane];
            for c in 0..channels {
                let chan = &values[(i * channels + c) * plane..(i * channels + c + 1) * plane];
                for (m, &v) in mask.iter_mut().zip(chan) {
                    if v != 0.0 {
                        *m = 1;
                    }
                }
            }
        }
    }

    /// Item count of the current mask.
    pub fn items(&self) -> usize {
        self.items
    }

    /// Spatial positions per item.
    pub fn plane(&self) -> usize {
        self.plane
    }

    /// Touch bytes of item `i` (nonzero = touched).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn item(&self, i: usize) -> &[u8] {
        &self.bytes[i * self.plane..(i + 1) * self.plane]
    }

    /// Total touched position count across all items.
    pub fn count(&self) -> usize {
        self.bytes.iter().filter(|&&b| b != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_the_comparison_on_special_values() {
        let sub = f32::from_bits(1);
        let v = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, sub, -sub, 1.0];
        // Long enough for whole chunks plus a tail, in every rotation.
        let x: Vec<f32> = v.iter().cycle().take(8 * 9 + 3).copied().collect();
        for k in 0..v.len() {
            let r = &x[k..];
            assert_eq!(count_nonzero(r), r.iter().filter(|&&v| v != 0.0).count());
        }
        let mut counts = vec![99];
        count_nonzero_rows(&x[..72], 9, &mut counts);
        assert_eq!(counts, [6; 9]);
        count_nonzero_rows(&[], 0, &mut counts);
        assert!(counts.is_empty());
        count_nonzero_rows(&[], 3, &mut counts);
        assert_eq!(counts, [0; 3]);
    }

    #[test]
    fn build_indexes_items_independently() {
        let v = [1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0];
        let mut s = SpikeTensor::new();
        let scan = s.build(&v, 3, 3, v.len());
        assert!(scan.compressed && scan.binary);
        assert_eq!((scan.nnz, scan.len), (3, 9));
        assert_eq!(s.item(0), &[0]);
        assert_eq!(s.item(1), &[1, 2]);
        assert_eq!(s.item(2), &[] as &[u32]);
        assert_eq!(s.nnz(), 3);
        assert!((scan.density() - 3.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn scan_stays_exact_past_the_bound() {
        let v = [1.0, 1.0, 1.0, 1.0];
        let mut s = SpikeTensor::new();
        let scan = s.build(&v, 2, 2, 2);
        assert!(!scan.compressed, "bound of 2 must abandon the index");
        assert!(scan.binary);
        assert_eq!(scan.nnz, 4, "nnz must still be exact");
        assert_eq!(s.nnz(), 0, "abandoned index must be empty");
    }

    #[test]
    fn scan_measures_non_binary_operands() {
        let v = [0.0, 0.5, 1.0, 0.0];
        let mut s = SpikeTensor::new();
        let scan = s.build(&v, 1, 4, v.len());
        assert!(!scan.compressed && !scan.binary);
        assert_eq!(scan.nnz, 2);
    }

    #[test]
    fn empty_batch_is_compressed_and_empty() {
        let mut s = SpikeTensor::new();
        let scan = s.build(&[], 0, 7, 0);
        assert!(scan.compressed);
        assert_eq!((scan.nnz, scan.len), (0, 0));
        assert_eq!(scan.density(), 0.0);
    }

    #[test]
    fn buffers_are_reused_across_builds() {
        let mut s = SpikeTensor::new();
        s.build(&[1.0, 0.0, 1.0, 1.0], 2, 2, 4);
        assert_eq!(s.nnz(), 3);
        let scan = s.build(&[0.0, 1.0, 0.0, 0.0], 2, 2, 4);
        assert!(scan.compressed);
        assert_eq!(s.nnz(), 1);
        assert_eq!(s.item(0), &[1]);
        assert_eq!(s.item(1), &[] as &[u32]);
    }

    #[test]
    fn touch_mask_marks_any_channel() {
        let mut m = TouchMask::new();
        // 1 item, 2 channels, plane 3: channel 0 hits pos 0, channel
        // 1 hits pos 2.
        let v = [5.0, 0.0, 0.0, 0.0, 0.0, -1.0];
        m.build_from_nonzero(&v, 1, 2, 3);
        assert_eq!(m.item(0), &[1, 0, 1]);
        assert_eq!((m.items(), m.plane(), m.count()), (1, 3, 2));
    }

    #[test]
    fn touch_mask_reset_clears_previous_marks() {
        let mut m = TouchMask::new();
        m.build_from_nonzero(&[1.0, 1.0], 1, 1, 2);
        assert_eq!(m.count(), 2);
        m.build_from_nonzero(&[0.0, 1.0], 1, 1, 2);
        assert_eq!(m.item(0), &[0, 1]);
    }
}
