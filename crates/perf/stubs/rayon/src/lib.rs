//! Stand-in for `rayon`: `into_par_iter()` / `par_iter()` hand back the
//! ordinary sequential iterator. Only `orcs` and `appsim::netgauge` use
//! it, and the benchmark drives neither.

pub mod prelude {
    /// `into_par_iter()` as a sequential `into_iter()`.
    pub trait IntoParallelIterator: IntoIterator + Sized {
        /// The sequential iterator.
        fn into_par_iter(self) -> Self::IntoIter {
            self.into_iter()
        }
    }
    impl<I: IntoIterator> IntoParallelIterator for I {}

    /// `par_iter()` as a sequential `iter()`.
    pub trait IntoParallelRefIterator<'a> {
        /// The sequential iterator type.
        type Iter: Iterator;
        /// The sequential iterator.
        fn par_iter(&'a self) -> Self::Iter;
    }
    impl<'a, C: 'a + ?Sized> IntoParallelRefIterator<'a> for C
    where
        &'a C: IntoIterator,
    {
        type Iter = <&'a C as IntoIterator>::IntoIter;
        fn par_iter(&'a self) -> Self::Iter {
            self.into_iter()
        }
    }
}
