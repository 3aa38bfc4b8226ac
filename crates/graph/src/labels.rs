//! Interned labels shared across a graph database.

use std::collections::HashMap;

/// An interned label id. Vertex and edge labels share one namespace.
pub type Label = u32;

/// Bidirectional mapping between label strings and compact [`Label`] ids.
///
/// A database owns one interner so that identical atom symbols, community
/// names, or bond orders compare as integer equality in the edit-distance
/// inner loops.
#[derive(Debug, Default, Clone)]
pub struct LabelInterner {
    names: Vec<String>,
    index: HashMap<String, Label>,
}

impl LabelInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its id (existing or fresh).
    pub fn intern(&mut self, name: &str) -> Label {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = self.names.len() as Label;
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), id);
        id
    }

    /// Looks up the id of `name` without interning it.
    pub fn get(&self, name: &str) -> Option<Label> {
        self.index.get(name).copied()
    }

    /// Returns the string for label id `id`, if in range.
    pub fn name(&self, id: Label) -> Option<&str> {
        self.names.get(id as usize).map(String::as_str)
    }

    /// Number of distinct labels interned so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no labels have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (Label, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (i as Label, n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut it = LabelInterner::new();
        let c = it.intern("C");
        let n = it.intern("N");
        assert_ne!(c, n);
        assert_eq!(it.intern("C"), c);
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn name_round_trips() {
        let mut it = LabelInterner::new();
        let id = it.intern("benzene-ring");
        assert_eq!(it.name(id), Some("benzene-ring"));
        assert_eq!(it.get("benzene-ring"), Some(id));
        assert_eq!(it.get("missing"), None);
    }

    #[test]
    fn iter_in_id_order() {
        let mut it = LabelInterner::new();
        for s in ["a", "b", "c"] {
            it.intern(s);
        }
        let got: Vec<_> = it.iter().map(|(_, n)| n.to_owned()).collect();
        assert_eq!(got, ["a", "b", "c"]);
    }
}
