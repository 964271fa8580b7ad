//! # ajax-dom
//!
//! A small, self-contained HTML parsing and DOM manipulation library. It plays
//! the role that the Java COBRA toolkit played in the original *AJAX Crawl*
//! thesis: it gives the crawler a **mutable DOM tree** with
//!
//! * an HTML tokenizer and a forgiving tree builder,
//! * element lookup by `id`,
//! * `innerHTML` read/write (write re-parses the fragment, exactly what the
//!   thesis' `doc.comment.innerHTML = new_comment_page` action needs),
//! * extraction of `on*` event-handler attributes (the crawler's event model),
//! * normalized serialization and a stable FNV-64 content hash used for
//!   duplicate-state detection (§3.2 of the thesis), and
//! * plain-text extraction used by the indexer.
//!
//! The implementation favours determinism and clarity over full WHATWG
//! compliance; it handles the HTML subset that real 2008-era AJAX pages (and
//! our synthetic VidShare workload) use: nested elements, attributes with and
//! without quotes, void elements, comments, entities, and raw-text `<script>`
//! elements.

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
pub use dom::{Document, Node, NodeData, NodeId};
pub use events::{EventBinding, EventType};
pub use hash::{fnv64, fnv64_str, Fnv64};
pub use parser::parse_document;
pub use select::{select, Selector, SelectorError};
pub use serialize::NormalizedView;
pub use tokenizer::{Attribute, Token, Tokenizer};
