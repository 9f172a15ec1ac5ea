//! Labeled datasets, splits, and mini-batch iteration.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use snn_tensor::{Shape, Tensor};

/// An in-memory labeled dataset of equally-shaped tensors.
///
/// Items are `[C, H, W]` images (or any other rank ≤ 3 tensor) with a
/// class label in `0..classes`.
///
/// # Examples
///
/// ```
/// use snn_data::{Dataset, SynthConfig};
///
/// let ds = SynthConfig::small().generate(64, 1);
/// let (train, test) = ds.split(0.75);
/// assert_eq!(train.len(), 48);
/// assert_eq!(test.len(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct Dataset {
    items: Vec<(Tensor, usize)>,
    classes: usize,
}

impl Dataset {
    /// Creates a dataset from labeled items.
    ///
    /// # Panics
    ///
    /// Panics if any label is `>= classes`, or if item shapes are not
    /// all identical.
    pub fn new(items: Vec<(Tensor, usize)>, classes: usize) -> Self {
        if let Some((first, _)) = items.first() {
            let shape = first.shape();
            for (t, label) in &items {
                assert_eq!(t.shape(), shape, "dataset items must share a shape");
                assert!(*label < classes, "label {label} out of range for {classes} classes");
            }
        }
        Dataset { items, classes }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Shape of one item.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn item_shape(&self) -> Shape {
        self.items.first().expect("empty dataset has no item shape").0.shape()
    }

    /// Borrow item `index` as `(image, label)`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn item(&self, index: usize) -> (&Tensor, usize) {
        let (t, l) = &self.items[index];
        (t, *l)
    }

    /// Splits into `(front, back)` where `front` receives
    /// `round(len * front_frac)` items, preserving order.
    ///
    /// # Panics
    ///
    /// Panics if `front_frac` is not within `[0, 1]`.
    pub fn split(&self, front_frac: f64) -> (Dataset, Dataset) {
        assert!((0.0..=1.0).contains(&front_frac), "fraction {front_frac} out of range");
        let k = (self.len() as f64 * front_frac).round() as usize;
        let front = Dataset { items: self.items[..k].to_vec(), classes: self.classes };
        let back = Dataset { items: self.items[k..].to_vec(), classes: self.classes };
        (front, back)
    }

    /// Returns a new dataset with items shuffled by `seed`.
    pub fn shuffled(&self, seed: u64) -> Dataset {
        let mut items = self.items.clone();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..items.len()).rev() {
            let j = rng.gen_range(0..=i);
            items.swap(i, j);
        }
        Dataset { items, classes: self.classes }
    }

    /// Flattens every item into a plain `Vec<f32>` (row-major, in
    /// dataset order) alongside its label — the `(items, labels)`
    /// shape the quantizer's calibration pass and the integer network
    /// consume.
    pub fn flat_items(&self) -> (Vec<Vec<f32>>, Vec<usize>) {
        self.items.iter().map(|(t, label)| (t.as_slice().to_vec(), *label)).unzip()
    }

    /// Returns a dataset containing only the first `n` items.
    pub fn take(&self, n: usize) -> Dataset {
        Dataset { items: self.items[..n.min(self.len())].to_vec(), classes: self.classes }
    }

    /// Iterates over mini-batches of up to `batch_size` stacked
    /// items: each batch is `([N, …item dims], labels)`.
    ///
    /// The final batch may be smaller. Batches preserve dataset
    /// order; call [`Dataset::shuffled`] first for SGD.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn batches(&self, batch_size: usize) -> Batches<'_> {
        assert!(batch_size > 0, "batch size must be nonzero");
        Batches { ds: self, batch_size, next: 0 }
    }

    /// Per-class item counts, length `classes`.
    pub fn class_histogram(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.classes];
        for (_, l) in &self.items {
            h[*l] += 1;
        }
        h
    }
}

/// Iterator over stacked mini-batches; created by
/// [`Dataset::batches`].
#[derive(Debug)]
pub struct Batches<'a> {
    ds: &'a Dataset,
    batch_size: usize,
    next: usize,
}

impl Iterator for Batches<'_> {
    type Item = (Tensor, Vec<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.ds.len() {
            return None;
        }
        let end = (self.next + self.batch_size).min(self.ds.len());
        let slice = &self.ds.items[self.next..end];
        self.next = end;
        let tensors: Vec<Tensor> = slice.iter().map(|(t, _)| t.clone()).collect();
        let labels: Vec<usize> = slice.iter().map(|(_, l)| *l).collect();
        let stacked = Tensor::stack(&tensors).expect("dataset invariant: uniform shapes");
        Some((stacked, labels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize) -> Dataset {
        let items = (0..n)
            .map(|i| (Tensor::full(Shape::d2(2, 2), i as f32), i % 3))
            .collect();
        Dataset::new(items, 3)
    }

    #[test]
    fn construction_checks_labels() {
        let items = vec![(Tensor::zeros(Shape::d1(2)), 5usize)];
        let r = std::panic::catch_unwind(|| Dataset::new(items, 3));
        assert!(r.is_err());
    }

    #[test]
    fn construction_checks_shapes() {
        let items = vec![
            (Tensor::zeros(Shape::d1(2)), 0usize),
            (Tensor::zeros(Shape::d1(3)), 1usize),
        ];
        let r = std::panic::catch_unwind(|| Dataset::new(items, 3));
        assert!(r.is_err());
    }

    #[test]
    fn flat_items_preserve_order_and_labels() {
        let ds = toy(4);
        let (items, labels) = ds.flat_items();
        assert_eq!(labels, vec![0, 1, 2, 0]);
        assert_eq!(items.len(), 4);
        assert_eq!(items[3], vec![3.0; 4]);
    }

    #[test]
    fn split_sizes() {
        let ds = toy(10);
        let (a, b) = ds.split(0.7);
        assert_eq!(a.len(), 7);
        assert_eq!(b.len(), 3);
        // Order is preserved.
        assert_eq!(a.item(0).0.as_slice()[0], 0.0);
        assert_eq!(b.item(0).0.as_slice()[0], 7.0);
    }

    #[test]
    fn shuffled_is_permutation() {
        let ds = toy(20);
        let sh = ds.shuffled(5);
        let mut orig: Vec<f32> = (0..20).map(|i| ds.item(i).0.as_slice()[0]).collect();
        let mut got: Vec<f32> = (0..20).map(|i| sh.item(i).0.as_slice()[0]).collect();
        assert_ne!(orig, got, "seeded shuffle should move items");
        orig.sort_by(f32::total_cmp);
        got.sort_by(f32::total_cmp);
        assert_eq!(orig, got);
    }

    #[test]
    fn shuffle_deterministic() {
        let ds = toy(16);
        let a = ds.shuffled(9);
        let b = ds.shuffled(9);
        for i in 0..16 {
            assert_eq!(a.item(i).0, b.item(i).0);
        }
    }

    #[test]
    fn batches_cover_everything_once() {
        let ds = toy(10);
        let mut seen = 0usize;
        let mut total_rows = 0usize;
        for (x, labels) in ds.batches(4) {
            assert_eq!(x.shape().dim(0), labels.len());
            total_rows += labels.len();
            seen += 1;
        }
        assert_eq!(seen, 3); // 4 + 4 + 2
        assert_eq!(total_rows, 10);
    }

    #[test]
    fn batch_stacks_correct_values() {
        let ds = toy(4);
        let (x, labels) = ds.batches(4).next().unwrap();
        assert_eq!(x.shape(), Shape::d3(4, 2, 2));
        assert_eq!(labels, vec![0, 1, 2, 0]);
        assert_eq!(x.batch_item(2).as_slice(), &[2.0; 4]);
    }

    #[test]
    fn class_histogram_counts() {
        let ds = toy(9);
        assert_eq!(ds.class_histogram(), vec![3, 3, 3]);
    }

    #[test]
    fn take_limits() {
        let ds = toy(10);
        assert_eq!(ds.take(3).len(), 3);
        assert_eq!(ds.take(99).len(), 10);
    }
}
