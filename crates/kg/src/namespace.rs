//! Well-known vocabularies and IRI utilities.

/// RDF namespace prefix.
pub const RDF: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#";
/// RDFS namespace prefix.
pub const RDFS: &str = "http://www.w3.org/2000/01/rdf-schema#";
/// OWL namespace prefix.
pub const OWL: &str = "http://www.w3.org/2002/07/owl#";

/// `rdf:type`.
pub const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
/// `rdfs:label`.
pub const RDFS_LABEL: &str = "http://www.w3.org/2000/01/rdf-schema#label";
/// `rdfs:comment`.
pub const RDFS_COMMENT: &str = "http://www.w3.org/2000/01/rdf-schema#comment";
/// `rdfs:subClassOf`.
pub const RDFS_SUBCLASS_OF: &str = "http://www.w3.org/2000/01/rdf-schema#subClassOf";
/// `rdfs:subPropertyOf`.
pub const RDFS_SUBPROPERTY_OF: &str = "http://www.w3.org/2000/01/rdf-schema#subPropertyOf";
/// `rdfs:domain`.
pub const RDFS_DOMAIN: &str = "http://www.w3.org/2000/01/rdf-schema#domain";
/// `rdfs:range`.
pub const RDFS_RANGE: &str = "http://www.w3.org/2000/01/rdf-schema#range";
/// `owl:Class`.
pub const OWL_CLASS: &str = "http://www.w3.org/2002/07/owl#Class";
/// `owl:disjointWith`.
pub const OWL_DISJOINT_WITH: &str = "http://www.w3.org/2002/07/owl#disjointWith";
/// `owl:FunctionalProperty`.
pub const OWL_FUNCTIONAL: &str = "http://www.w3.org/2002/07/owl#FunctionalProperty";
/// `owl:InverseFunctionalProperty`.
pub const OWL_INVERSE_FUNCTIONAL: &str = "http://www.w3.org/2002/07/owl#InverseFunctionalProperty";
/// `owl:inverseOf`.
pub const OWL_INVERSE_OF: &str = "http://www.w3.org/2002/07/owl#inverseOf";
/// `owl:TransitiveProperty`.
pub const OWL_TRANSITIVE: &str = "http://www.w3.org/2002/07/owl#TransitiveProperty";
/// `owl:SymmetricProperty`.
pub const OWL_SYMMETRIC: &str = "http://www.w3.org/2002/07/owl#SymmetricProperty";

/// `xsd:integer`.
pub const XSD_INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";
/// `xsd:double`.
pub const XSD_DOUBLE: &str = "http://www.w3.org/2001/XMLSchema#double";
/// `xsd:boolean`.
pub const XSD_BOOLEAN: &str = "http://www.w3.org/2001/XMLSchema#boolean";

/// Base namespace used by the synthetic generators for entities.
pub const SYNTH_ENTITY: &str = "http://llmkg.dev/entity/";
/// Base namespace used by the synthetic generators for vocabulary.
pub const SYNTH_VOCAB: &str = "http://llmkg.dev/vocab/";

/// The local name of an IRI: the substring after the last `#` or `/`.
///
/// Falls back to the whole IRI when neither separator occurs.
pub fn local_name(iri: &str) -> &str {
    match iri.rfind(['#', '/']) {
        Some(pos) if pos + 1 < iri.len() => &iri[pos + 1..],
        _ => iri,
    }
}

/// The namespace part of an IRI (everything up to and including the last
/// `#` or `/`), or the empty string when there is no separator.
pub fn namespace_of(iri: &str) -> &str {
    match iri.rfind(['#', '/']) {
        Some(pos) if pos + 1 < iri.len() => &iri[..=pos],
        _ => "",
    }
}

/// Very pragmatic IRI well-formedness test: non-empty, has a scheme-like
/// prefix, and contains no whitespace or angle brackets.
pub fn is_valid_iri(iri: &str) -> bool {
    !iri.is_empty()
        && iri.contains(':')
        && !iri
            .chars()
            .any(|c| c.is_whitespace() || c == '<' || c == '>' || c == '"')
}

/// Turn a human label into an IRI-safe local-name fragment
/// (`"New York"` → `"New_York"`).
pub fn slug(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect()
}

/// Turn an IRI local name back into a human-readable phrase
/// (`"New_York"` → `"New York"`, `"birthPlace"` → `"birth place"`).
pub fn humanize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    let mut prev_lower = false;
    for c in name.chars() {
        if c == '_' || c == '-' {
            out.push(' ');
            prev_lower = false;
        } else if c.is_uppercase() && prev_lower {
            out.push(' ');
            out.extend(c.to_lowercase());
            prev_lower = false;
        } else {
            out.push(c);
            prev_lower = c.is_lowercase() || c.is_numeric();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_name_handles_hash_and_slash() {
        assert_eq!(local_name("http://a/b#C"), "C");
        assert_eq!(local_name("http://a/b/c"), "c");
        assert_eq!(local_name("no-separator"), "no-separator");
        assert_eq!(local_name("http://a/b/"), "http://a/b/");
    }

    #[test]
    fn namespace_of_is_complement_of_local_name() {
        assert_eq!(namespace_of("http://a/b#C"), "http://a/b#");
        assert_eq!(namespace_of("http://a/b/c"), "http://a/b/");
        assert_eq!(namespace_of("plain"), "");
    }

    #[test]
    fn iri_validity() {
        assert!(is_valid_iri("http://example.org/x"));
        assert!(is_valid_iri("urn:uuid:123"));
        assert!(!is_valid_iri(""));
        assert!(!is_valid_iri("no-scheme"));
        assert!(!is_valid_iri("http://a b"));
        assert!(!is_valid_iri("http://a<b>"));
    }

    #[test]
    fn slug_and_humanize_round_trip_words() {
        assert_eq!(slug("New York"), "New_York");
        assert_eq!(humanize("New_York"), "New York");
        assert_eq!(humanize("birthPlace"), "birth place");
        assert_eq!(humanize("directedBy"), "directed by");
    }
}
