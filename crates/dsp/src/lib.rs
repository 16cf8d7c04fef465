//! # streamgate-dsp
//!
//! Stream-processing kernels for the PAL stereo audio decoder case study of
//! *"Real-Time Multiprocessor Architecture for Sharing Stream Processing
//! Accelerators"* (Dekens et al., IPDPSW 2015, §VI).
//!
//! The paper's demonstrator shares exactly two accelerators between four
//! streams: a **CORDIC** (used as channel mixer and as FM discriminator) and
//! a **33-tap FIR low-pass with built-in 8:1 down-sampler**. This crate
//! implements both kernels — bit-level CORDIC, polyphase decimator — plus
//! the synthetic PAL stereo baseband source that replaces the paper's RF
//! front-end, and the measurement helpers used to verify decoded audio.
//!
//! All kernels expose `save_state` / `restore_state`, because stateful
//! accelerators are the entire reason the paper's gateways exist: a stream
//! switch must save and restore filter delay lines and discriminator state
//! over the configuration bus.

#![warn(missing_docs)]

pub mod analysis;
pub mod complex;
pub mod cordic;
pub mod decimate;
pub mod fir;
pub mod fm;
pub mod nco;
pub mod pal;

pub use analysis::{rms_error, snr_db, tone_power, total_power};
pub use complex::Complex;
pub use cordic::{fixed_to_radians, radians_to_fixed, wrap_angle, Cordic};
pub use decimate::{Decimator, DecimatorState};
pub use fir::{design_lowpass, magnitude_response, FirFilter, FirState, Window};
pub use fm::{FmDemodulator, FmModulator};
pub use nco::{Mixer, Nco};
pub use pal::{decode_stereo, ChannelDecoder, PalConfig, PalStereoSource};
