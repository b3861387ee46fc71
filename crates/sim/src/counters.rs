//! Counter sets declared once.
//!
//! A device's or cache's counters are plain counts and duration totals.
//! Each one is accumulated by a run, added across fleet shards, exported
//! under a dotted key (`--metrics-out`), and stored as one raw number on
//! a fleet-checkpoint line. [`counter_set!`](crate::counter_set) declares such a struct with
//! every field's export key next to it and generates the rest, so a new
//! counter cannot reach the struct and miss the merge, the export or the
//! checkpoint.

use std::ops::AddAssign;

use crate::time::SimDuration;

/// A value a counter-set field can hold: a count, or a duration total
/// carried as nanoseconds.
pub trait Count: Copy + AddAssign {
    /// The raw form: the count itself, or a duration in nanoseconds.
    fn raw(self) -> u64;
    /// Rebuilds a value from its [`raw`](Count::raw) form.
    fn from_raw(raw: u64) -> Self;
}

impl Count for u64 {
    fn raw(self) -> u64 {
        self
    }

    fn from_raw(raw: u64) -> Self {
        raw
    }
}

impl Count for SimDuration {
    fn raw(self) -> u64 {
        self.as_nanos()
    }

    fn from_raw(raw: u64) -> Self {
        SimDuration::from_nanos(raw)
    }
}

/// What every [`counter_set!`](crate::counter_set) struct provides.
pub trait CounterSet: Copy {
    /// The export keys, one per field, in declaration order.
    const KEYS: &'static [&'static str];
    /// Adds `other` into `self` field by field (fleet aggregation).
    fn merge(&mut self, other: &Self);
    /// The raw field values in declaration order (durations in ns).
    fn values(&self) -> Vec<u64>;
    /// Rebuilds a set from [`values`](CounterSet::values)' form: `None`
    /// unless `values` holds exactly one value per field.
    fn from_values(values: &[u64]) -> Option<Self>;
}

/// Declares a counter set: a `Copy` struct of `u64` counts and
/// [`SimDuration`] totals whose every field names its export key.
///
/// The struct derives `Debug, Clone, Copy, Default, PartialEq, Eq`, and
/// implements [`CounterSet`] with the keys, a field-wise `merge`, and the
/// raw `values`/`from_values` pair, all in declaration order.
///
/// # Examples
///
/// ```
/// use mobistore_sim::counter_set;
/// use mobistore_sim::counters::CounterSet;
/// use mobistore_sim::time::SimDuration;
///
/// counter_set! {
///     /// A toy device's counters.
///     pub struct ToyCounters {
///         /// Completed accesses.
///         pub ops: u64 => "toy.ops",
///         /// Time spent recovering.
///         pub recovery_time: SimDuration => "toy.recovery_ns",
///     }
/// }
///
/// let mut a = ToyCounters { ops: 2, recovery_time: SimDuration::from_nanos(5) };
/// let b = a;
/// a.merge(&b);
/// assert_eq!(ToyCounters::KEYS, ["toy.ops", "toy.recovery_ns"]);
/// assert_eq!(a.values(), [4, 10]);
/// assert_eq!(ToyCounters::from_values(&[4, 10]), Some(a));
/// assert_eq!(ToyCounters::from_values(&[4, 10, 1]), None);
/// ```
#[macro_export]
macro_rules! counter_set {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $(
                $(#[$field_meta:meta])*
                pub $field:ident : $ty:ty => $key:literal
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $(
                $(#[$field_meta])*
                pub $field: $ty,
            )+
        }

        impl $crate::counters::CounterSet for $name {
            const KEYS: &'static [&'static str] = &[$($key),+];

            fn merge(&mut self, other: &Self) {
                $(self.$field += other.$field;)+
            }

            fn values(&self) -> ::std::vec::Vec<u64> {
                ::std::vec![$($crate::counters::Count::raw(self.$field)),+]
            }

            fn from_values(values: &[u64]) -> ::std::option::Option<Self> {
                let &[$($field),+] = values else {
                    return ::std::option::Option::None;
                };
                ::std::option::Option::Some($name {
                    $($field: $crate::counters::Count::from_raw($field),)+
                })
            }
        }
    };
}
