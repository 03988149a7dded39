//! Offline stand-in for the `crossbeam::thread::scope` API, implemented
//! on top of `std::thread::scope` (stable since Rust 1.63).

pub mod thread {
    use std::any::Any;

    /// Mirror of `crossbeam::thread::Scope`: hands out scoped spawns whose
    /// closures receive the scope again (so workers can spawn workers).
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawn a scoped worker. The closure's argument is the scope
        /// itself (commonly ignored as `|_|`).
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            ScopedJoinHandle {
                handle: inner.spawn(move || f(&Scope { inner })),
            }
        }
    }

    /// Join handle for a scoped worker.
    pub struct ScopedJoinHandle<'scope, T> {
        handle: std::thread::ScopedJoinHandle<'scope, T>,
    }

    impl<T> ScopedJoinHandle<'_, T> {
        /// Wait for the worker and return its result (`Err` on panic).
        pub fn join(self) -> Result<T, Box<dyn Any + Send + 'static>> {
            self.handle.join()
        }
    }

    /// Run `f` with a scope in which borrowing, non-`'static` threads can
    /// be spawned; all are joined before this returns. Matches the
    /// crossbeam signature (`Result`-wrapped) so call sites can `.expect`.
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }

    #[cfg(test)]
    mod tests {
        #[test]
        fn scoped_threads_borrow_and_join() {
            let data = [1u64, 2, 3, 4, 5, 6];
            let total: u64 = super::scope(|s| {
                let handles: Vec<_> = data
                    .chunks(2)
                    .map(|c| s.spawn(move |_| c.iter().sum::<u64>()))
                    .collect();
                handles.into_iter().map(|h| h.join().expect("worker")).sum()
            })
            .expect("scope");
            assert_eq!(total, 21);
        }
    }
}
