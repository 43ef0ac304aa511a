//! The four workloads. Each stresses different layers; `README.md` has
//! the table of which layer does the work where.

mod defer_churn;
mod hit_txn;
mod mail_crr;
mod struct_mix;

pub use defer_churn::DeferChurn;
pub use hit_txn::HitTxn;
pub use mail_crr::MailCrr;
pub use struct_mix::StructMix;
