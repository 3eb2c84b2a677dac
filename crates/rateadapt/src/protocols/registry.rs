//! Name → adapter-constructor lookup, as a view over [`ProtocolKind`].
//!
//! [`ProtocolKind`] is the one protocol table; this view keeps the
//! `builtin_shared().factory(name)` shape for callers that hold a name
//! and want a constructor to call with [`ProtocolParams`].

use super::{ProtocolKind, ProtocolParams, RateAdapter};

/// The builtin protocols, looked up by name through [`ProtocolKind`].
#[derive(Debug)]
pub struct ProtocolRegistry;

impl ProtocolRegistry {
    /// The builtin table.
    pub fn builtin_shared() -> &'static ProtocolRegistry {
        &ProtocolRegistry
    }

    /// A constructor for the protocol `name` selects (ignoring ASCII
    /// case, as [`ProtocolKind::from_name`]); each call yields a fresh
    /// adapter with clean state.
    pub fn factory(&self, name: &str) -> Option<impl Fn(&ProtocolParams) -> Box<dyn RateAdapter>> {
        ProtocolKind::from_name(name).map(|kind| move |params: &ProtocolParams| kind.build(params))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_resolves_names_like_protocol_kind() {
        let registry = ProtocolRegistry::builtin_shared();
        let factory = registry.factory("charm").expect("builtin protocol");
        assert_eq!(factory(&ProtocolParams::default()).name(), "CHARM");
        assert!(registry.factory("warpdrive").is_none());
    }
}
