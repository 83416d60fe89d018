//! Link-layer models for the MosquitoNet test-bed.
//!
//! The paper's mobile hosts had two communication devices: a Linksys PCMCIA
//! Ethernet card and a Metricom packet radio driven over a 115.2 kb/s serial
//! port by the authors' STRIP driver. Figure 6's cold-switch packet losses
//! are dominated by *device bring-up time* ("The longer time interval is due
//! to bringing up the new interface", §4), so the device model here is a
//! small state machine whose bring-up/bring-down transitions take simulated
//! time, plus per-technology transmission-delay and loss models.
//!
//! Nothing in this crate schedules events; devices and LANs are pure state
//! machines and delay calculators that the `mosquitonet-stack` world drives,
//! which keeps them independently testable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
mod fault;
mod frame;
mod lan;
pub mod presets;

pub use device::{Device, DeviceCounters, DeviceKind, DeviceState, PowerModel};
pub use fault::{
    FaultCounters, FaultKind, FaultPlan, FaultRates, FaultVerdict, HostFaultCounters,
    HostFaultEvent, HostFaultPlan,
};
pub use frame::{EtherType, Frame, FRAME_HEADER_LEN};
pub use lan::{Attachment, AttachmentKey, DelayModel, Lan, LanKind, Recipients};
