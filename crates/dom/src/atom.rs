//! Interned tag and attribute names.
//!
//! A parsed page repeats a handful of names hundreds of times. The names
//! HTML itself gives a meaning — and the ones the crawler looks up by
//! literal (`id`, `class`, `href`, the `on*` handlers) — live in a static
//! table and cost nothing to store; any other name is an `Arc<str>` that
//! the nodes of one parse share ([`Interner`]).

use std::collections::HashSet;
use std::sync::Arc;

/// A lowercase tag or attribute name, made by an [`Interner`]. Compares as
/// the string it derefs to.
#[derive(Debug, Clone)]
pub(crate) struct Atom(Repr);

#[derive(Debug, Clone)]
enum Repr {
    Static(&'static str),
    Shared(Arc<str>),
}

macro_rules! static_atoms {
    ($($len:literal: $($name:literal)*;)*) => {
        /// The table entry equal to `name`, if there is one. By length
        /// first: a name is compared with the few entries as long as it.
        fn static_atom(name: &str) -> Option<&'static str> {
            match name.len() {
                $($len => match name {
                    $($name => Some($name),)*
                    _ => None,
                },)*
                _ => None,
            }
        }

        #[cfg(test)]
        const STATIC_ATOMS: &[(usize, &str)] = &[$($(($len, $name),)*)*];
    };
}

// Void and raw-text elements (the tree builder and both serializers ask for
// these by name), the elements text-centric pages are made of, and the
// attributes the crawler reads by literal name.
static_atoms! {
    1: "a" "b" "i" "p";
    2: "br" "hr" "em" "h1" "h2" "h3" "li" "ol" "td" "th" "tr" "ul" "id";
    3: "col" "img" "wbr" "div" "src";
    4: "area" "base" "link" "meta" "body" "form" "head" "html" "span" "name" "type" "href";
    5: "embed" "param" "track" "input" "style" "label" "table" "tbody" "title" "class" "value";
    6: "source" "script" "button" "option" "select" "strong" "onload";
    7: "onclick" "onkeyup";
    8: "onchange";
    10: "ondblclick" "onmouseout";
    11: "onmouseover" "onmousedown";
}

impl Atom {
    #[inline]
    pub(crate) fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Static(name) => name,
            Repr::Shared(name) => name,
        }
    }
}

impl std::ops::Deref for Atom {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Atom {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Atom {}

/// As the string: what lets a map keyed by atoms be asked about a `&str`.
impl std::hash::Hash for Atom {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl std::borrow::Borrow<str> for Atom {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq<str> for Atom {
    #[inline]
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Atom {
    #[inline]
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

/// The names one parse has met outside the static table, so that each is
/// allocated once however many nodes carry it. Hashed under a random key
/// (`RandomState`): a page that makes up names by the thousand (a hostile
/// one) must not make each new name cost a scan of all the others.
#[derive(Default)]
pub(crate) struct Interner {
    shared: HashSet<Arc<str>>,
}

impl Interner {
    /// The atom for `name`, which must be lowercase already.
    pub(crate) fn atom(&mut self, name: &str) -> Atom {
        if let Some(name) = static_atom(name) {
            return Atom(Repr::Static(name));
        }
        Atom(Repr::Shared(match self.shared.get(name) {
            Some(known) => Arc::clone(known),
            None => {
                let known: Arc<str> = name.into();
                self.shared.insert(Arc::clone(&known));
                known
            }
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_and_shared_names_compare_as_strings() {
        let atom = |name| Interner::default().atom(name);
        assert_eq!(atom("div"), "div");
        assert_eq!(atom("data-k"), "data-k");
        assert_eq!(atom("data-k"), atom("data-k"));
        assert_ne!(atom("div"), atom("span"));
        assert!(matches!(atom("onclick").0, Repr::Static(_)));
        assert!(matches!(atom("x-custom").0, Repr::Shared(_)));
    }

    #[test]
    fn static_table_is_filed_by_length() {
        for &(len, name) in STATIC_ATOMS {
            assert_eq!(name.len(), len, "{name}");
            assert_eq!(static_atom(name), Some(name));
            assert_eq!(name, name.to_ascii_lowercase());
        }
        assert_eq!(static_atom(""), None);
        assert_eq!(static_atom("onmouseenter"), None);
    }

    #[test]
    fn interner_shares_one_allocation_per_name() {
        let mut names = Interner::default();
        let (a, b) = (names.atom("x-widget"), names.atom("x-widget"));
        match (&a.0, &b.0) {
            (Repr::Shared(a), Repr::Shared(b)) => assert!(Arc::ptr_eq(a, b)),
            other => panic!("expected shared atoms, got {other:?}"),
        }
        assert!(matches!(names.atom("script").0, Repr::Static(_)));
        assert!(names.shared.len() == 1);
    }
}
