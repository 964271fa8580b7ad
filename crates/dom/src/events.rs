//! The event model of §2.1: elements carry `on*` attributes whose values are
//! JavaScript snippets; the crawler enumerates these bindings and invokes them.

use crate::dom::{Document, NodeId};
use serde::{Deserialize, Serialize};

/// The user-event types the crawler considers. §3.2 notes that a practical
/// crawler can "focus just on the most important events (click, doubleclick,
/// mouseover)"; we additionally model `mousedown`/`mouseover` (listed in
/// Table 4.1) and the AJAX-specific `onload`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum EventType {
    Load,
    Click,
    DblClick,
    MouseOver,
    MouseDown,
    MouseOut,
    Change,
    KeyUp,
}

impl EventType {
    /// Maps an `on*` attribute name (lowercase) to the event type.
    pub fn from_attr(attr: &str) -> Option<Self> {
        Some(match attr {
            "onload" => Self::Load,
            "onclick" => Self::Click,
            "ondblclick" => Self::DblClick,
            "onmouseover" => Self::MouseOver,
            "onmousedown" => Self::MouseDown,
            "onmouseout" => Self::MouseOut,
            "onchange" => Self::Change,
            "onkeyup" => Self::KeyUp,
            _ => return None,
        })
    }

    /// The `on*` attribute name for this event type.
    pub fn attr_name(self) -> &'static str {
        match self {
            Self::Load => "onload",
            Self::Click => "onclick",
            Self::DblClick => "ondblclick",
            Self::MouseOver => "onmouseover",
            Self::MouseDown => "onmousedown",
            Self::MouseOut => "onmouseout",
            Self::Change => "onchange",
            Self::KeyUp => "onkeyup",
        }
    }

    /// All event types, in the deterministic order the crawler fires them.
    pub fn all() -> &'static [EventType] {
        &[
            Self::Load,
            Self::Click,
            Self::DblClick,
            Self::MouseOver,
            Self::MouseDown,
            Self::MouseOut,
            Self::Change,
            Self::KeyUp,
        ]
    }

    /// The default set a crawler triggers (everything except `Load`, which is
    /// fired once per page by the init step of Alg. 3.1.1).
    pub fn user_events() -> &'static [EventType] {
        &[
            Self::Click,
            Self::DblClick,
            Self::MouseOver,
            Self::MouseDown,
            Self::MouseOut,
            Self::Change,
            Self::KeyUp,
        ]
    }
}

impl std::fmt::Display for EventType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.attr_name().trim_start_matches("on"))
    }
}

/// One event binding found in a DOM: the *source* element, the *trigger*
/// event type and the handler code (the thesis' Figure 2.1 structure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventBinding {
    /// Node the handler is attached to.
    pub node: NodeId,
    /// A stable description of the source element (tag plus `id` if present),
    /// used to annotate transitions even after rollback invalidates `node`.
    pub source: String,
    /// The trigger.
    pub event_type: EventType,
    /// The JavaScript snippet in the attribute value.
    pub code: String,
}

/// Collects all event bindings in `doc`, in document order, restricted to
/// `types`. This is the "for all Event e ∈ s" iteration of Alg. 3.1.1.
pub fn collect_event_bindings(doc: &Document, types: &[EventType]) -> Vec<EventBinding> {
    let mut out = Vec::new();
    for id in doc.walk() {
        // Most elements carry no handler at all: one look at the names
        // instead of one lookup per event type.
        let Some(element) = doc.element(id) else {
            continue;
        };
        if !element.attrs().any(|(name, _)| name.starts_with("on")) {
            continue;
        }
        for ty in types {
            if let Some(code) = element.attr(ty.attr_name()) {
                if code.trim().is_empty() {
                    continue;
                }
                out.push(EventBinding {
                    node: id,
                    source: describe_element(doc, id),
                    event_type: *ty,
                    code: code.to_string(),
                });
            }
        }
    }
    out
}

/// Finds the `onload` handler on `<body>` (the AJAX-specific init step,
/// Alg. 3.1.1 line 3).
pub fn body_onload(doc: &Document) -> Option<String> {
    doc.walk()
        .find(|&id| doc.tag_name(id) == Some("body"))
        .and_then(|id| doc.attr(id, "onload"))
        .map(str::to_string)
}

/// Produces a stable, human-readable description of an element, e.g.
/// `div#nextArrow` or `a.page-link`.
pub fn describe_element(doc: &Document, id: NodeId) -> String {
    let tag = doc.tag_name(id).unwrap_or("?");
    if let Some(elem_id) = doc.attr(id, "id") {
        format!("{tag}#{elem_id}")
    } else if let Some(class) = doc.attr(id, "class") {
        format!("{tag}.{}", class.split_whitespace().next().unwrap_or(""))
    } else {
        tag.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;

    #[test]
    fn collects_bindings_in_document_order() {
        let doc = parse_document(
            "<body onload=\"init()\">\
             <div id=\"nextArrow\" onclick=\"next()\">next</div>\
             <span onmouseover=\"hover()\">h</span>\
             </body>",
        );
        let bindings = collect_event_bindings(&doc, EventType::user_events());
        assert_eq!(bindings.len(), 2);
        assert_eq!(bindings[0].event_type, EventType::Click);
        assert_eq!(bindings[0].code, "next()");
        assert_eq!(bindings[0].source, "div#nextArrow");
        assert_eq!(bindings[1].event_type, EventType::MouseOver);
    }

    #[test]
    fn body_onload_found() {
        let doc = parse_document("<html><body onload=\"boot()\"><p>x</p></body></html>");
        assert_eq!(body_onload(&doc), Some("boot()".to_string()));
    }

    #[test]
    fn body_onload_absent() {
        let doc = parse_document("<html><body><p>x</p></body></html>");
        assert_eq!(body_onload(&doc), None);
    }

    #[test]
    fn empty_handlers_skipped() {
        let doc = parse_document("<div onclick=\"  \">x</div>");
        assert!(collect_event_bindings(&doc, EventType::user_events()).is_empty());
    }

    #[test]
    fn filter_by_type() {
        let doc = parse_document("<div onclick=\"a()\" onmouseover=\"b()\">x</div>");
        let clicks = collect_event_bindings(&doc, &[EventType::Click]);
        assert_eq!(clicks.len(), 1);
        assert_eq!(clicks[0].code, "a()");
    }

    #[test]
    fn event_type_attr_roundtrip() {
        for ty in EventType::all() {
            assert_eq!(EventType::from_attr(ty.attr_name()), Some(*ty));
        }
        assert_eq!(EventType::from_attr("onbogus"), None);
    }

    #[test]
    fn describe_falls_back_to_class_then_tag() {
        let doc = parse_document("<div class=\"menu big\">x</div><em>y</em>");
        let mut walk = doc.walk();
        let div = walk.next().unwrap();
        let em = walk.next().unwrap();
        assert_eq!(describe_element(&doc, div), "div.menu");
        assert_eq!(describe_element(&doc, em), "em");
    }
}
