//! Stand-in for `serde_json`: every call reports that serialization is
//! unavailable in this build. Only `vet::Report::to_json` reaches it,
//! and the benchmark never calls that.

/// The one error this stand-in produces.
#[derive(Debug)]
pub struct Error;

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("serde_json stand-in: serialization unavailable in offline builds")
    }
}

impl std::error::Error for Error {}

/// Always `Err`: the stand-in cannot serialize.
pub fn to_string_pretty<T: ?Sized>(_value: &T) -> Result<String, Error> {
    Err(Error)
}

/// Always `Err`: the stand-in cannot serialize.
pub fn to_string<T: ?Sized>(_value: &T) -> Result<String, Error> {
    Err(Error)
}
