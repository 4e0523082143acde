//! Naming packet-header locations and metadata entries.
//!
//! SEFL models packets with the physical layout of real packets (Figure 6 of
//! the paper): every header field lives at an absolute bit offset, and
//! programs usually address fields relative to *tags* (`Start`, `L2`, `L3`,
//! `L4`, `End`) so that the same model works regardless of encapsulation
//! depth. Metadata entries, in contrast, are free-form string keys in the
//! built-in map and carry no layout.

use std::fmt;

/// Visibility of a metadata entry (the optional `m` parameter of `Allocate`).
///
/// Local metadata is namespaced to the network element instance that created
/// it, which is how the paper's NAT model supports cascaded NAT instances that
/// each store their own mapping (§7).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Visibility {
    /// Visible to every element the packet later traverses (the default).
    #[default]
    Global,
    /// Visible only to the element instance that allocated it.
    Local,
}

/// A bit address inside the packet header.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum HeaderAddr {
    /// An absolute bit offset (may be negative: encapsulation prepends headers
    /// at negative offsets relative to the original `Start`, see Figure 6).
    Absolute(i64),
    /// `Tag(name) + offset` — the address of tag `name` plus a bit offset.
    TagOffset {
        /// Tag name, e.g. `"L3"`.
        tag: String,
        /// Bit offset relative to the tag.
        offset: i64,
    },
}

impl HeaderAddr {
    /// An absolute bit address.
    pub fn absolute(addr: i64) -> Self {
        HeaderAddr::Absolute(addr)
    }

    /// An address relative to a tag.
    pub fn tag(name: impl Into<String>) -> Self {
        HeaderAddr::TagOffset {
            tag: name.into(),
            offset: 0,
        }
    }

    /// An address relative to a tag plus a bit offset.
    pub fn tag_offset(name: impl Into<String>, offset: i64) -> Self {
        HeaderAddr::TagOffset {
            tag: name.into(),
            offset,
        }
    }

    /// Adds a bit offset to this address.
    pub fn plus(self, delta: i64) -> Self {
        match self {
            HeaderAddr::Absolute(a) => HeaderAddr::Absolute(a + delta),
            HeaderAddr::TagOffset { tag, offset } => HeaderAddr::TagOffset {
                tag,
                offset: offset + delta,
            },
        }
    }
}

impl fmt::Display for HeaderAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeaderAddr::Absolute(a) => write!(f, "{a}"),
            HeaderAddr::TagOffset { tag, offset } if *offset == 0 => write!(f, "Tag(\"{tag}\")"),
            HeaderAddr::TagOffset { tag, offset } if *offset > 0 => {
                write!(f, "Tag(\"{tag}\")+{offset}")
            }
            HeaderAddr::TagOffset { tag, offset } => write!(f, "Tag(\"{tag}\"){offset}"),
        }
    }
}

/// A reference to a value the program can read or write: either a packet
/// header field or a metadata entry.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum FieldRef {
    /// A packet-header field at the given bit address. The field's width is
    /// fixed when it is allocated and checked on every access (header memory
    /// safety, §3).
    Header(HeaderAddr),
    /// A metadata entry (a key in SymNet's built-in map).
    Meta(String),
}

impl FieldRef {
    /// A header field at an absolute bit offset.
    pub fn header_at(addr: i64) -> Self {
        FieldRef::Header(HeaderAddr::Absolute(addr))
    }

    /// A header field addressed relative to a tag.
    pub fn header(addr: HeaderAddr) -> Self {
        FieldRef::Header(addr)
    }

    /// A metadata entry.
    pub fn meta(key: impl Into<String>) -> Self {
        FieldRef::Meta(key.into())
    }

    /// Returns the metadata key if this reference names metadata.
    pub fn as_meta(&self) -> Option<&str> {
        match self {
            FieldRef::Meta(k) => Some(k),
            FieldRef::Header(_) => None,
        }
    }

    /// Returns true if this reference names a header field.
    pub fn is_header(&self) -> bool {
        matches!(self, FieldRef::Header(_))
    }
}

impl fmt::Display for FieldRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldRef::Header(addr) => write!(f, "{addr}"),
            FieldRef::Meta(key) => write!(f, "\"{key}\""),
        }
    }
}

impl From<&str> for FieldRef {
    fn from(key: &str) -> Self {
        FieldRef::meta(key)
    }
}

impl From<String> for FieldRef {
    fn from(key: String) -> Self {
        FieldRef::Meta(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_addr_plus_folds() {
        assert_eq!(
            HeaderAddr::absolute(100).plus(28),
            HeaderAddr::Absolute(128)
        );
        assert_eq!(
            HeaderAddr::tag("L3").plus(96),
            HeaderAddr::tag_offset("L3", 96)
        );
        assert_eq!(
            HeaderAddr::tag_offset("L3", 96).plus(-96),
            HeaderAddr::tag_offset("L3", 0)
        );
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(
            HeaderAddr::tag_offset("L3", 96).to_string(),
            "Tag(\"L3\")+96"
        );
        assert_eq!(
            HeaderAddr::tag_offset("L4", -160).to_string(),
            "Tag(\"L4\")-160"
        );
        assert_eq!(HeaderAddr::tag("L2").to_string(), "Tag(\"L2\")");
        assert_eq!(FieldRef::meta("orig-ip").to_string(), "\"orig-ip\"");
    }

    #[test]
    fn fieldref_classification() {
        let h = FieldRef::header_at(0);
        let m = FieldRef::meta("OPT2");
        assert!(h.is_header());
        assert!(!m.is_header());
        assert_eq!(m.as_meta(), Some("OPT2"));
        assert_eq!(h.as_meta(), None);
        let from_str: FieldRef = "key".into();
        assert_eq!(from_str, FieldRef::meta("key"));
    }

    #[test]
    fn visibility_default_is_global() {
        assert_eq!(Visibility::default(), Visibility::Global);
    }
}
