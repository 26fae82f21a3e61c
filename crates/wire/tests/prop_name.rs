//! Property tests for the flat wire-form `Name` against a reference model:
//! the label-vector representation it replaced, a list of lowercase
//! labels compared the way `Vec<Box<[u8]>>` derives its order.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use ldp_wire::{Name, NameRef};
use proptest::prelude::*;

/// The old representation: lowercase labels, leftmost first.
type Labels = Vec<Vec<u8>>;

/// Labels from a tiny alphabet so names often share labels and prefixes;
/// upper case, `*` and a byte equal to a length octet included.
fn arb_label() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![
            Just(b'a'),
            Just(b'b'),
            Just(b'A'),
            Just(b'B'),
            Just(b'*'),
            Just(1u8),
            Just(b'-'),
        ],
        1..5,
    )
}

fn arb_labels() -> impl Strategy<Value = Labels> {
    proptest::collection::vec(arb_label(), 0..5)
}

fn lower(labels: &Labels) -> Labels {
    labels.iter().map(|l| l.to_ascii_lowercase()).collect()
}

fn name(labels: &Labels) -> Name {
    Name::from_labels(labels).expect("short labels make a valid name")
}

fn model(n: &Name) -> Labels {
    n.labels().map(<[u8]>::to_vec).collect()
}

/// Old wire-length rule: one octet per label length, the labels, the root.
fn wire_len(labels: &Labels) -> usize {
    1 + labels.iter().map(|l| l.len() + 1).sum::<usize>()
}

fn fits(labels: &Labels) -> bool {
    wire_len(labels) <= 255
}

fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// RFC 4034 §6.1 order on the model: labels compared right to left.
fn canonical_model(a: &Labels, b: &Labels) -> std::cmp::Ordering {
    a.iter().rev().cmp(b.iter().rev())
}

proptest! {
    #[test]
    fn ord_matches_the_label_vector_order(a in arb_labels(), b in arb_labels()) {
        let (na, nb) = (name(&a), name(&b));
        prop_assert_eq!(na.cmp(&nb), lower(&a).cmp(&lower(&b)));
        prop_assert_eq!(na.as_name_ref().cmp(&nb.as_name_ref()), na.cmp(&nb));
        prop_assert_eq!(na.canonical_cmp(&nb), canonical_model(&lower(&a), &lower(&b)));
    }

    #[test]
    fn hash_and_eq_agree_with_the_borrowed_bytes(a in arb_labels(), b in arb_labels()) {
        let (na, nb) = (name(&a), name(&b));
        prop_assert_eq!(na == nb, na.as_wire() == nb.as_wire());
        prop_assert_eq!(na == nb, lower(&a) == lower(&b));
        prop_assert_eq!(hash_of(&na), hash_of(na.as_wire()));
        let set: HashSet<Name> = [na.clone()].into_iter().collect();
        prop_assert_eq!(set.contains(nb.as_wire()), na == nb);
        prop_assert_eq!(set.get(na.as_wire()), Some(&na));
    }

    #[test]
    fn names_compare_case_insensitively(a in arb_labels()) {
        let upper: Labels = a.iter().map(|l| l.to_ascii_uppercase()).collect();
        let (na, nu) = (name(&a), name(&upper));
        prop_assert_eq!(&na, &nu);
        prop_assert_eq!(hash_of(&na), hash_of(&nu));
        prop_assert_eq!(na.cmp(&nu), std::cmp::Ordering::Equal);
        prop_assert_eq!(model(&na), lower(&a));
        prop_assert!(na.as_wire().iter().all(|b| !b.is_ascii_uppercase()));
    }

    #[test]
    fn tree_operations_match_the_model(a in arb_labels(), b in arb_labels(), l in arb_label()) {
        let (na, nb) = (name(&a), name(&b));
        let m = lower(&a);
        prop_assert_eq!(na.label_count(), m.len());
        prop_assert_eq!(na.wire_len(), wire_len(&m));
        prop_assert_eq!(na.parent().map(|p| model(&p)), (!m.is_empty()).then(|| m[1..].to_vec()));
        for keep in 0..=m.len() + 1 {
            let want = (keep <= m.len()).then(|| m[m.len() - keep..].to_vec());
            prop_assert_eq!(na.ancestor(keep).map(|x| model(&x)), want.clone());
            prop_assert_eq!(na.as_name_ref().ancestor(keep).map(|x| model(&x.to_name())), want);
        }
        let suffixes: Vec<Labels> = na.as_name_ref().suffixes().map(|s| model(&s.to_name())).collect();
        let want: Vec<Labels> = (0..=m.len()).map(|i| m[i..].to_vec()).collect();
        prop_assert_eq!(suffixes, want);

        let mut prepended = vec![l.to_ascii_lowercase()];
        prepended.extend(m.iter().cloned());
        match na.prepend(&l) {
            Ok(p) => prop_assert_eq!(model(&p), prepended),
            Err(_) => prop_assert!(!fits(&prepended)),
        }
        let joined: Labels = m.iter().chain(lower(&b).iter()).cloned().collect();
        match na.concat(&nb) {
            Ok(c) => prop_assert_eq!(model(&c), joined),
            Err(_) => prop_assert!(!fits(&joined)),
        }
        let wild = (!m.is_empty()).then(|| {
            let mut w = vec![b"*".to_vec()];
            w.extend(m[1..].iter().cloned());
            w
        });
        prop_assert_eq!(na.to_wildcard().map(|w| model(&w)), wild);
        prop_assert_eq!(na.is_wildcard(), m.first().is_some_and(|f| f == b"*"));
        // Subdomain: the model's labels end with the other's.
        let sub = m.ends_with(&lower(&b));
        prop_assert_eq!(na.is_subdomain_of(&nb), sub);
        prop_assert_eq!(na.as_name_ref().is_subdomain_of(nb.as_name_ref()), sub);
    }

    #[test]
    fn text_form_roundtrip(a in arb_labels()) {
        let na = name(&a);
        prop_assert_eq!(Name::parse(&na.to_string()).expect("display parses"), na.clone());
        prop_assert_eq!(NameRef::from_wire(na.as_wire()).expect("valid wire"), na);
    }
}

/// What a writer is asked to do in the compression property.
#[derive(Debug, Clone)]
enum Op {
    Name(Labels),
    Uncompressed(Labels),
    Raw(Vec<u8>),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_labels().prop_map(Op::Name),
        arb_labels().prop_map(Op::Name),
        arb_labels().prop_map(Op::Uncompressed),
        proptest::collection::vec(any::<u8>(), 0..40).prop_map(Op::Raw),
    ]
}

/// The compression rule `put_name` had when it kept a map from suffix
/// bytes to the offset of their first occurrence.
fn reference_writer(ops: &[Op]) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut first_seen: std::collections::HashMap<Vec<u8>, u16> = Default::default();
    let wire = |labels: &[Vec<u8>]| -> Vec<u8> {
        labels
            .iter()
            .flat_map(|l| std::iter::once(l.len() as u8).chain(l.iter().copied()))
            .collect()
    };
    for op in ops {
        match op {
            Op::Raw(bytes) => buf.extend_from_slice(bytes),
            Op::Uncompressed(labels) => {
                buf.extend(wire(&lower(labels)));
                buf.push(0);
            }
            Op::Name(labels) => {
                let labels = lower(labels);
                let mut pointed = false;
                for i in 0..labels.len() {
                    let key = wire(&labels[i..]);
                    if let Some(&off) = first_seen.get(&key) {
                        buf.extend_from_slice(&(0xC000 | off).to_be_bytes());
                        pointed = true;
                        break;
                    }
                    if buf.len() < 0x4000 {
                        first_seen.insert(key, buf.len() as u16);
                    }
                    buf.extend(wire(&labels[i..=i]));
                }
                if !pointed {
                    buf.push(0);
                }
            }
        }
    }
    buf
}

proptest! {
    #[test]
    fn compression_makes_the_suffix_map_pointer_choices(
        ops in proptest::collection::vec(arb_op(), 0..40),
        prefix in proptest::collection::vec(any::<u8>(), 0..6),
    ) {
        // Written behind unrelated bytes: offsets are message-relative.
        let mut w = ldp_wire::WireWriter::append_to(prefix.clone());
        for op in &ops {
            match op {
                Op::Raw(bytes) => w.put_slice(bytes),
                Op::Uncompressed(labels) => {
                    w.put_name_uncompressed(name(labels).as_name_ref()).expect("valid name")
                }
                Op::Name(labels) => w.put_name(&name(labels)).expect("valid name"),
            }
        }
        let out = w.into_bytes();
        prop_assert_eq!(&out[..prefix.len()], &prefix[..]);
        prop_assert_eq!(&out[prefix.len()..], &reference_writer(&ops)[..]);
    }
}
