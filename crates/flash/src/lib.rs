//! Flash storage management for the `mobistore` reproduction of *Storage
//! Alternatives for Mobile Computers* (Douglis et al., OSDI '94).
//!
//! The byte-accessible flash memory card (Intel Series 2) erases in large
//! segments, so a file system using it must remap blocks, clean segments by
//! copying live data, and spread erasures to respect the card's endurance
//! limit (§2). [`store::FlashCardStore`] implements that machinery — the
//! analogue of the Microsoft Flash File System layer the paper simulates —
//! with the cleaning-policy and scheduling knobs §4.2 describes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod live_index;
pub mod store;

pub use store::{
    CleanerMode, FlashCardConfig, FlashCardCounters, FlashCardStore, VictimPolicy, WearStats,
};
