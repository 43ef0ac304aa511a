//! kmalloc-style size classes.

/// The size classes served by the general-purpose (`kmalloc`) front end,
/// mirroring the Linux kmalloc caches the paper benchmarks (kmalloc-64,
/// kmalloc-512, ..., kmalloc-4096).
pub const SIZE_CLASSES: &[usize] = &[8, 16, 32, 64, 96, 128, 192, 256, 512, 1024, 2048, 4096];

/// Index of the smallest size class that can hold `size` bytes, or `None`
/// if `size` exceeds the largest class.
///
/// # Example
///
/// ```
/// use pbs_alloc_api::{class_index_for, SIZE_CLASSES};
///
/// assert_eq!(SIZE_CLASSES[class_index_for(1).unwrap()], 8);
/// assert_eq!(SIZE_CLASSES[class_index_for(64).unwrap()], 64);
/// assert_eq!(SIZE_CLASSES[class_index_for(65).unwrap()], 96);
/// assert_eq!(class_index_for(8192), None);
/// ```
pub fn class_index_for(size: usize) -> Option<usize> {
    SIZE_CLASSES.iter().position(|&c| c >= size)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_are_sorted_and_unique() {
        for pair in SIZE_CLASSES.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn exact_boundaries() {
        for (i, &c) in SIZE_CLASSES.iter().enumerate() {
            assert_eq!(class_index_for(c), Some(i));
        }
    }

    #[test]
    fn zero_maps_to_smallest() {
        assert_eq!(class_index_for(0), Some(0));
    }

    #[test]
    fn oversized_is_none() {
        assert_eq!(
            class_index_for(SIZE_CLASSES[SIZE_CLASSES.len() - 1] + 1),
            None
        );
    }
}
