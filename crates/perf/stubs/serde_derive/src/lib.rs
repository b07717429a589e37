//! Stand-in for `serde_derive`: the derives expand to nothing. The
//! workspace's JSON paths are hand-rolled (`telemetry::json`,
//! `fabric::format::json`), so no code the benchmark drives needs a
//! working `Serialize`/`Deserialize` impl.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
