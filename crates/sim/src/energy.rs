//! Energy and power accounting.
//!
//! The paper's central metric is total energy consumed by the storage system
//! (Table 4, Figures 2, 4, 5). Devices are modeled as spending wall-clock
//! time in *power states* (active, idle, sleeping, spinning up, …), each with
//! a constant power draw; energy is the power × time integral.

use core::fmt;
use core::iter::Sum;
use core::marker::PhantomData;
use core::ops::{Add, AddAssign, Mul, Sub};

use crate::time::SimDuration;

/// An amount of energy, in joules.
///
/// # Examples
///
/// ```
/// use mobistore_sim::energy::{Joules, Watts};
/// use mobistore_sim::time::SimDuration;
///
/// let e = Watts(2.0) * SimDuration::from_secs(3);
/// assert_eq!(e, Joules(6.0));
/// ```
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Joules(pub f64);

/// A power draw, in watts.
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Watts(pub f64);

impl Joules {
    /// Zero energy.
    pub const ZERO: Joules = Joules(0.0);

    /// Returns the raw joule count.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Watts {
    /// Zero power draw.
    pub const ZERO: Watts = Watts(0.0);

    /// Returns the raw watt value.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Mul<SimDuration> for Watts {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: SimDuration) -> Joules {
        Joules(self.0 * rhs.as_secs_f64())
    }
}

impl Add for Joules {
    type Output = Joules;
    #[inline]
    fn add(self, rhs: Joules) -> Joules {
        Joules(self.0 + rhs.0)
    }
}

impl AddAssign for Joules {
    #[inline]
    fn add_assign(&mut self, rhs: Joules) {
        self.0 += rhs.0;
    }
}

impl Sub for Joules {
    type Output = Joules;
    fn sub(self, rhs: Joules) -> Joules {
        Joules(self.0 - rhs.0)
    }
}

impl Sum for Joules {
    fn sum<I: Iterator<Item = Joules>>(iter: I) -> Joules {
        iter.fold(Joules::ZERO, |acc, j| acc + j)
    }
}

impl fmt::Debug for Joules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}J", self.0)
    }
}

impl fmt::Display for Joules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} J", self.0)
    }
}

impl fmt::Debug for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}W", self.0)
    }
}

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} W", self.0)
    }
}

/// A component's energy states: a closed set, declared once with
/// [`energy_states!`](crate::energy_states) as a fieldless enum whose
/// variants name the states in report order.
pub trait EnergyState: Copy + 'static {
    /// Every state's report name, in declaration order.
    const NAMES: &'static [&'static str];
    /// The state's position in declaration order, below `NAMES.len()`.
    fn index(self) -> usize;
}

/// The most states one component may declare (the EC array has seven).
pub const MAX_STATES: usize = 8;

/// Declares a component's energy states: a fieldless enum whose every
/// variant names the state it reports as.
///
/// The enum derives `Debug, Clone, Copy, PartialEq, Eq` and implements
/// [`EnergyState`] with the names in declaration order. Declaring more
/// than [`MAX_STATES`] states fails to compile.
///
/// # Examples
///
/// ```
/// use mobistore_sim::energy::EnergyState;
/// use mobistore_sim::energy_states;
///
/// energy_states! {
///     /// A toy device's power states.
///     pub enum ToyState {
///         /// Serving a request.
///         Active => "active",
///         /// Powered, waiting.
///         Idle => "idle",
///     }
/// }
///
/// assert_eq!(ToyState::NAMES, ["active", "idle"]);
/// assert_eq!(ToyState::Idle.index(), 1);
/// ```
#[macro_export]
macro_rules! energy_states {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $(
                $(#[$variant_meta:meta])*
                $variant:ident => $label:literal
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $(
                $(#[$variant_meta])*
                $variant,
            )+
        }

        impl $crate::energy::EnergyState for $name {
            const NAMES: &'static [&'static str] = &[$($label),+];

            #[inline]
            fn index(self) -> usize {
                self as usize
            }
        }

        const _: () = assert!(
            <$name as $crate::energy::EnergyState>::NAMES.len() <= $crate::energy::MAX_STATES,
            "more energy states than an EnergyMeter holds"
        );
    };
}

/// Accumulates energy and time per energy state of one component.
///
/// The states are the component's [`EnergyState`] enum, so a charge
/// indexes a fixed array: no lookup, no allocation, and no state that
/// was not declared. Names appear only in the report-time
/// [`breakdown`](Self::breakdown) and
/// [`breakdown_timed`](Self::breakdown_timed).
///
/// # Examples
///
/// ```
/// use mobistore_sim::energy::{EnergyMeter, Watts};
/// use mobistore_sim::energy_states;
/// use mobistore_sim::time::SimDuration;
///
/// energy_states! {
///     /// A toy device's power states.
///     pub enum ToyState {
///         /// Serving a request.
///         Active => "active",
///         /// Powered, waiting.
///         Idle => "idle",
///     }
/// }
///
/// let mut meter = EnergyMeter::new();
/// meter.charge_for(ToyState::Active, Watts(1.75), SimDuration::from_secs(2));
/// meter.charge_for(ToyState::Idle, Watts(0.7), SimDuration::from_secs(10));
/// assert!((meter.total().get() - 10.5).abs() < 1e-9);
/// assert_eq!(meter.category(ToyState::Active).get(), 3.5);
/// ```
#[derive(Clone)]
pub struct EnergyMeter<S: EnergyState> {
    /// Energy and attributed time, indexed by [`EnergyState::index`];
    /// slots past the declared states stay zero.
    slots: [(Joules, SimDuration); MAX_STATES],
    states: PhantomData<S>,
}

impl<S: EnergyState> Default for EnergyMeter<S> {
    fn default() -> Self {
        EnergyMeter::new()
    }
}

impl<S: EnergyState> EnergyMeter<S> {
    /// Creates a meter with nothing charged to any state.
    pub fn new() -> Self {
        EnergyMeter {
            slots: [(Joules::ZERO, SimDuration::ZERO); MAX_STATES],
            states: PhantomData,
        }
    }

    /// Adds `energy` to `state` without attributing any state time
    /// (e.g. a fixed per-operation cost).
    #[inline]
    pub fn charge(&mut self, state: S, energy: Joules) {
        self.slots[state.index()].0 += energy;
    }

    /// Charges `power × duration` to `state` and attributes the duration
    /// as time spent in that state, enabling duty-cycle reports.
    #[inline]
    pub fn charge_for(&mut self, state: S, power: Watts, duration: SimDuration) {
        self.charge_timed(state, power * duration, duration);
    }

    /// Adds `energy`, already computed as some power × `duration` (a
    /// [`PriceTable`](crate::price::PriceTable)'s cost), to `state` and
    /// attributes the duration as time spent in it.
    #[inline]
    pub fn charge_timed(&mut self, state: S, energy: Joules, duration: SimDuration) {
        let slot = &mut self.slots[state.index()];
        slot.0 += energy;
        slot.1 += duration;
    }

    /// Returns the energy charged to `state`.
    pub fn category(&self, state: S) -> Joules {
        self.slots[state.index()].0
    }

    /// Returns the time attributed to `state` via
    /// [`charge_for`](Self::charge_for) and
    /// [`charge_timed`](Self::charge_timed).
    pub fn category_time(&self, state: S) -> SimDuration {
        self.slots[state.index()].1
    }

    /// Returns total energy across all states, summed in declaration
    /// order.
    pub fn total(&self) -> Joules {
        self.breakdown().map(|(_, e)| e).sum()
    }

    /// Iterates over `(state name, energy)` pairs in declaration order.
    pub fn breakdown(&self) -> impl Iterator<Item = (&'static str, Joules)> + '_ {
        self.breakdown_timed().map(|(n, e, _)| (n, e))
    }

    /// Iterates over `(state name, energy, attributed time)` triples in
    /// declaration order.
    pub fn breakdown_timed(
        &self,
    ) -> impl Iterator<Item = (&'static str, Joules, SimDuration)> + '_ {
        S::NAMES
            .iter()
            .zip(&self.slots)
            .map(|(&n, &(e, d))| (n, e, d))
    }
}

/// Two meters are equal when every state holds the same energy, bit for
/// bit, and the same time: a deterministic replay reproduces the bits, so
/// that is what two runs of it are compared by.
impl<S: EnergyState> PartialEq for EnergyMeter<S> {
    fn eq(&self, other: &Self) -> bool {
        self.slots
            .iter()
            .zip(&other.slots)
            .all(|((ea, ta), (eb, tb))| ea.0.to_bits() == eb.0.to_bits() && ta == tb)
    }
}

impl<S: EnergyState> fmt::Debug for EnergyMeter<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.breakdown_timed()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    energy_states! {
        /// Two test states.
        pub enum Pair {
            /// The first.
            A => "a",
            /// The second.
            B => "b",
        }
    }

    energy_states! {
        /// Test states named like a component's.
        pub enum Duty {
            /// Serving.
            Active => "active",
            /// Waiting.
            Idle => "idle",
        }
    }

    #[test]
    fn power_times_time_is_energy() {
        let e = Watts(0.5) * SimDuration::from_millis(2_000);
        assert!((e.get() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn joule_arithmetic() {
        let a = Joules(1.5);
        let b = Joules(0.5);
        assert_eq!((a + b).get(), 2.0);
        assert_eq!((a - b).get(), 1.0);
        let total: Joules = [a, b, b].into_iter().sum();
        assert_eq!(total.get(), 2.5);
    }

    #[test]
    fn meter_accumulates_per_category() {
        let mut m = EnergyMeter::new();
        m.charge(Pair::A, Joules(1.0));
        m.charge(Pair::A, Joules(2.0));
        m.charge(Pair::B, Joules(4.0));
        assert_eq!(m.category(Pair::A).get(), 3.0);
        assert_eq!(m.category(Pair::B).get(), 4.0);
        assert_eq!(m.total().get(), 7.0);
        let names: Vec<_> = m.breakdown().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn charge_for_tracks_time_and_energy() {
        let mut m = EnergyMeter::new();
        m.charge_for(Duty::Active, Watts(2.0), SimDuration::from_secs(3));
        m.charge_for(Duty::Active, Watts(1.0), SimDuration::from_secs(1));
        m.charge(Duty::Active, Joules(0.5)); // Untimed surcharge.
        assert!((m.category(Duty::Active).get() - 7.5).abs() < 1e-12);
        assert_eq!(m.category_time(Duty::Active), SimDuration::from_secs(4));
        assert_eq!(m.category_time(Duty::Idle), SimDuration::ZERO);
        let timed: Vec<_> = m.breakdown_timed().collect();
        assert_eq!(timed.len(), 2);
        assert_eq!(timed[0].0, "active");
    }

    #[test]
    fn meters_are_equal_when_their_bits_are() {
        let mut a = EnergyMeter::new();
        a.charge_for(Duty::Active, Watts(0.1), SimDuration::from_nanos(3));
        let mut b = a.clone();
        assert_eq!(a, b);
        // 0.1 + 0.2 and 0.3 differ in the last bit.
        a.charge(Duty::Idle, Joules(0.1));
        a.charge(Duty::Idle, Joules(0.2));
        b.charge(Duty::Idle, Joules(0.3));
        assert_ne!(a, b);
        let mut c = EnergyMeter::new();
        c.charge_timed(
            Duty::Active,
            Watts(0.1) * SimDuration::from_nanos(3),
            SimDuration::from_nanos(4),
        );
        assert_ne!(c, EnergyMeter::new(), "time counts too");
    }
}
