//! Offline stand-in for `rayon`.
//!
//! Provides the two patterns this workspace uses — `slice.par_iter()
//! .map(f).collect::<C>()` and, consuming a `Vec`, `vec.into_par_iter()
//! .map(f).collect::<C>()` — with genuine parallelism: the input is
//! chunked across `std::thread::scope` workers (one per available core,
//! capped by item count) and the mapped results are reassembled in input
//! order before the final `collect`, so any `FromIterator` target
//! (`Vec<_>`, `Result<Vec<_>, E>`, ...) behaves exactly as with rayon.
//! There is no work-stealing: experiment grids have a handful of
//! long-running, similarly-sized items, where static chunking is within
//! noise of a stealing scheduler.

/// Import surface mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator};
}

/// `par_iter()` entry point for slice-backed collections (`Vec`, arrays
/// via unsized coercion, slices).
pub trait IntoParallelRefIterator<'d> {
    /// Element type yielded by reference.
    type Item: Sync + 'd;

    /// A parallel view over `&self`.
    fn par_iter(&'d self) -> ParIter<'d, Self::Item>;
}

impl<'d, T: Sync + 'd> IntoParallelRefIterator<'d> for [T] {
    type Item = T;

    fn par_iter(&'d self) -> ParIter<'d, T> {
        ParIter { slice: self }
    }
}

impl<'d, T: Sync + 'd> IntoParallelRefIterator<'d> for Vec<T> {
    type Item = T;

    fn par_iter(&'d self) -> ParIter<'d, T> {
        ParIter { slice: self }
    }
}

impl<'d, T: Sync + 'd, const N: usize> IntoParallelRefIterator<'d> for [T; N] {
    type Item = T;

    fn par_iter(&'d self) -> ParIter<'d, T> {
        ParIter { slice: self }
    }
}

/// Borrowing parallel iterator over a slice.
pub struct ParIter<'d, T> {
    slice: &'d [T],
}

impl<'d, T: Sync> ParIter<'d, T> {
    /// Map each element in parallel.
    pub fn map<U, F>(self, f: F) -> ParMap<'d, T, F>
    where
        U: Send,
        F: Fn(&'d T) -> U + Sync,
    {
        ParMap {
            slice: self.slice,
            f,
        }
    }
}

/// Mapped parallel iterator; terminal `collect` runs the work.
pub struct ParMap<'d, T, F> {
    slice: &'d [T],
    f: F,
}

impl<'d, T: Sync, U: Send, F: Fn(&'d T) -> U + Sync> ParMap<'d, T, F> {
    /// Run the map across worker threads and collect in input order.
    pub fn collect<C: FromIterator<U>>(self) -> C {
        par_map(self.slice.iter().collect(), &self.f)
            .into_iter()
            .collect()
    }
}

/// `into_par_iter()` entry point for owned collections: each element is
/// moved to the worker that maps it.
pub trait IntoParallelIterator {
    /// The parallel iterator produced.
    type Iter;
    /// Element type yielded by value.
    type Item: Send;

    /// A parallel iterator consuming `self`.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Iter = IntoIter<T>;
    type Item = T;

    fn into_par_iter(self) -> IntoIter<T> {
        IntoIter { vec: self }
    }
}

/// Consuming parallel iterator over a `Vec`.
pub struct IntoIter<T> {
    vec: Vec<T>,
}

impl<T: Send> IntoIter<T> {
    /// Map each element in parallel, by value.
    pub fn map<U, F>(self, f: F) -> IntoMap<T, F>
    where
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        IntoMap { vec: self.vec, f }
    }
}

/// Mapped consuming parallel iterator; terminal `collect` runs the work.
pub struct IntoMap<T, F> {
    vec: Vec<T>,
    f: F,
}

impl<T: Send, U: Send, F: Fn(T) -> U + Sync> IntoMap<T, F> {
    /// Run the map across worker threads and collect in input order.
    pub fn collect<C: FromIterator<U>>(self) -> C {
        par_map(self.vec, &self.f).into_iter().collect()
    }
}

/// Map `items` in input order, each chunk of them moved to its own worker.
fn par_map<T: Send, U: Send, F: Fn(T) -> U + Sync>(items: Vec<T>, f: &F) -> Vec<U> {
    let n = items.len();
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n.max(1));
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk = n.div_ceil(workers);
    let mut items = items.into_iter();
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(workers);
    while items.len() > 0 {
        chunks.push(items.by_ref().take(chunk).collect());
    }
    let mut parts: Vec<Vec<U>> = Vec::with_capacity(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|c| s.spawn(move || c.into_iter().map(f).collect::<Vec<U>>()))
            .collect();
        for h in handles {
            // Propagate worker panics to the caller, like rayon does.
            parts.push(h.join().expect("parallel worker panicked"));
        }
    });
    parts.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn maps_in_order() {
        let v: Vec<u64> = (0..1000).collect();
        let out: Vec<u64> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn collects_into_result() {
        let v = vec![1u32, 2, 3];
        let ok: Result<Vec<u32>, String> = v.par_iter().map(|x| Ok(x + 1)).collect();
        assert_eq!(ok.unwrap(), vec![2, 3, 4]);
        let err: Result<Vec<u32>, String> = v
            .par_iter()
            .map(|x| {
                if *x == 2 {
                    Err("boom".to_string())
                } else {
                    Ok(*x)
                }
            })
            .collect();
        assert_eq!(err.unwrap_err(), "boom");
    }

    #[test]
    fn arrays_get_par_iter_via_coercion() {
        let arr = [1u8, 2, 3];
        let out: Vec<u8> = arr.par_iter().map(|x| x + 1).collect();
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn into_par_iter_moves_items_and_keeps_order() {
        let v: Vec<String> = (0..1001).map(|i| i.to_string()).collect();
        let out: Vec<usize> = v.into_par_iter().map(|s: String| s.len()).collect();
        let want: Vec<usize> = (0..1001).map(|i: i32| i.to_string().len()).collect();
        assert_eq!(out, want);
        let err: Result<Vec<u8>, u8> = vec![1u8, 2, 3]
            .into_par_iter()
            .map(|x| if x == 2 { Err(x) } else { Ok(x) })
            .collect();
        assert_eq!(err, Err(2));
        let empty: Vec<u8> = Vec::<u8>::new().into_par_iter().map(|x| x).collect();
        assert!(empty.is_empty());
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u8> = Vec::new();
        let out: Vec<u8> = empty.par_iter().map(|x| *x).collect();
        assert!(out.is_empty());
        let one = [7u8];
        let out: Vec<u8> = one.par_iter().map(|x| *x).collect();
        assert_eq!(out, vec![7]);
    }
}
