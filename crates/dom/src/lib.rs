//! # ajax-dom
//!
//! A small, self-contained HTML parsing and DOM manipulation library. It plays
//! the role that the Java COBRA toolkit played in the original *AJAX Crawl*
//! thesis: it gives the crawler a **mutable DOM tree** with
//!
//! * an HTML tokenizer whose tokens borrow from the input and a forgiving
//!   tree builder that interns tag and attribute names,
//! * element lookup by `id`,
//! * `innerHTML` read/write (write re-parses the fragment, exactly what the
//!   thesis' `doc.comment.innerHTML = new_comment_page` action needs — or
//!   copies a [`Fragment`] parsed earlier),
//! * extraction of `on*` event-handler attributes (the crawler's event model),
//! * normalized serialization with the byte span of every subtree
//!   ([`NormalizedView`]), kept current across mutations by splicing what a
//!   mutation log names into the view before. The normalized text *is* the
//!   state for duplicate detection (§3.2 of the thesis); its stable FNV-64
//!   hash is the name a state is stored under, not its identity, and
//! * plain-text extraction used by the indexer.
//!
//! The implementation favours determinism and clarity over full WHATWG
//! compliance; it handles the HTML subset that real 2008-era AJAX pages (and
//! our synthetic VidShare workload) use: nested elements, attributes with and
//! without quotes, void elements, comments, entities, and raw-text `<script>`
//! elements.

mod atom;
pub mod diff;
pub mod dom;
pub mod entities;
pub mod events;
pub mod hash;
pub mod parser;
pub mod select;
pub mod serialize;
pub mod tokenizer;

pub use diff::{changed_roots, ChangedTarget};
pub use dom::{Document, Element, Fragment, Node, NodeData, NodeId};
pub use events::{EventBinding, EventType};
pub use hash::{fnv64, fnv64_str, Fnv64};
pub use parser::parse_document;
pub use select::{select, Selector, SelectorError};
pub use serialize::NormalizedView;
pub use tokenizer::{Attribute, Token, Tokenizer};
