//! A crypto hot-path file name, as in `seal-crypto`.

pub mod aes;
