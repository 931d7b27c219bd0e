//! The cross-crate call graph over [`crate::parser`] output.
//!
//! Resolution is deliberately *approximate but biased sound* for the
//! reachability rules: a call that cannot be resolved contributes no
//! edge (std methods, closures), and an ambiguous call contributes an
//! edge to **every** plausible workspace target, so panic-reachability
//! over-reports rather than under-reports. Precision comes from three
//! locality tiers (same file → same crate → whole workspace) and a
//! std-method denylist: method names that shadow ubiquitous std methods
//! (`push`, `get`, `len`, …) only resolve through a literal
//! `self.…` receiver chain in the defining file, otherwise every
//! `Vec::push` in the workspace would appear to call every workspace
//! method of that name.

use crate::diag::json_escape;
use crate::parser::{Call, ParsedFile};
use std::collections::{HashMap, VecDeque};

/// Method names that collide with std-type methods: resolved only via a
/// `self.`-rooted receiver against the caller's own file.
const STD_METHODS: &[&str] = &[
    "new", "default", "clone", "len", "is_empty", "get", "get_mut", "push",
    "pop", "insert", "remove", "contains", "contains_key", "iter",
    "iter_mut", "into_iter", "next", "collect", "map", "and_then", "filter",
    "fold", "extend", "clear", "resize", "fill", "take", "replace", "set",
    "load", "store", "swap", "fetch_add", "fetch_sub", "lock", "read",
    "write", "try_lock", "join", "spawn", "drain", "split_at", "chunks",
    "windows", "sort", "sort_by", "min", "max", "abs", "sqrt", "to_vec",
    "to_string", "to_owned", "as_ref", "as_mut", "as_slice", "as_str",
    "unwrap_or", "unwrap_or_else", "unwrap_or_default", "ok", "err",
    "is_some", "is_none", "is_ok", "is_err", "copied", "cloned",
    "enumerate", "zip", "rev", "position", "find", "any", "all", "count",
    "sum", "product", "push_back", "push_front", "pop_front", "pop_back",
    "entry", "or_insert", "starts_with", "ends_with", "trim", "split",
    "parse", "fmt", "drop", "first", "last", "retain", "truncate",
    "reserve", "with_capacity", "copy_from_slice", "clone_from_slice",
    "swap_remove", "min_by_key", "max_by_key", "flat_map", "flatten",
    "clamp", "rem_euclid", "saturating_sub", "saturating_add",
    "wrapping_add", "abs_diff", "start", "end",
];

/// One fn in the flattened workspace view.
#[derive(Clone, Debug)]
pub struct NodeInfo {
    /// Index into the `ParsedFile` slice the graph was built from.
    pub file: usize,
    /// Index into that file's `fns`.
    pub item: usize,
    /// Display key: `crate::module::Type::name`.
    pub key: String,
}

/// The workspace call graph.
pub struct CallGraph {
    pub nodes: Vec<NodeInfo>,
    /// Adjacency (sorted, deduplicated).
    pub edges: Vec<Vec<usize>>,
    /// Nodes declared `// lint: entry(panic-reachability)`.
    pub entries: Vec<usize>,
}

/// Reachability from the declared entries: for each node,
/// `Some((entry, predecessor))` when reachable (`predecessor` is `None`
/// for the entries themselves).
pub struct Reach {
    pub from: Vec<Option<(usize, Option<usize>)>>,
}

fn display_key(pf: &ParsedFile, item: usize) -> String {
    let f = &pf.fns[item];
    let mut key = String::new();
    if !pf.krate.is_empty() {
        key.push_str(&pf.krate);
        key.push_str("::");
    }
    for m in &f.module {
        key.push_str(m);
        key.push_str("::");
    }
    if let Some(ty) = &f.impl_type {
        key.push_str(ty);
        key.push_str("::");
    }
    key.push_str(&f.name);
    key
}

/// Strips the `salient_` package prefix so `salient_graph::x` and a
/// `use salient_fault as fault` alias both resolve to the crate dir name.
fn normalize_crate(seg: &str) -> &str {
    seg.strip_prefix("salient_").unwrap_or(seg)
}

impl CallGraph {
    /// Builds nodes and edges for the whole workspace.
    pub fn build(parsed: &[ParsedFile]) -> CallGraph {
        let mut nodes = Vec::new();
        for (fi, pf) in parsed.iter().enumerate() {
            for (gi, _) in pf.fns.iter().enumerate() {
                nodes.push(NodeInfo { file: fi, item: gi, key: display_key(pf, gi) });
            }
        }
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        for (n, info) in nodes.iter().enumerate() {
            let f = &parsed[info.file].fns[info.item];
            by_name.entry(f.name.as_str()).or_default().push(n);
        }
        let mut entries = Vec::new();
        let mut edges = vec![Vec::new(); nodes.len()];
        for (n, info) in nodes.iter().enumerate() {
            let caller = &parsed[info.file].fns[info.item];
            if caller.entry && !caller.is_test {
                entries.push(n);
            }
            if caller.is_test {
                continue;
            }
            let mut targets = Vec::new();
            for call in &caller.calls {
                targets.extend(resolve(parsed, &nodes, &by_name, info, call));
            }
            targets.sort_unstable();
            targets.dedup();
            targets.retain(|&t| t != n);
            edges[n] = targets;
        }
        CallGraph { nodes, edges, entries }
    }

    /// BFS from the declared entries, remembering one predecessor per
    /// node so findings can print a concrete call path as evidence.
    pub fn reachability(&self) -> Reach {
        let mut from: Vec<Option<(usize, Option<usize>)>> = vec![None; self.nodes.len()];
        let mut queue = VecDeque::new();
        for &e in &self.entries {
            if from[e].is_none() {
                from[e] = Some((e, None));
                queue.push_back(e);
            }
        }
        while let Some(n) = queue.pop_front() {
            let entry = match from[n] {
                Some((e, _)) => e,
                None => continue,
            };
            for &t in &self.edges[n] {
                if from[t].is_none() {
                    from[t] = Some((entry, Some(n)));
                    queue.push_back(t);
                }
            }
        }
        Reach { from }
    }

    /// The entry → … → `node` call path recorded by [`reachability`].
    pub fn path_to(&self, reach: &Reach, node: usize) -> Vec<usize> {
        let mut path = vec![node];
        let mut cur = node;
        while let Some((_, Some(pred))) = reach.from[cur] {
            path.push(pred);
            cur = pred;
            if path.len() > self.nodes.len() {
                break; // defensive: malformed predecessor chain
            }
        }
        path.reverse();
        path
    }

    /// A human-readable `a → b → c` rendering of the evidence path,
    /// elided in the middle when long.
    pub fn path_display(&self, reach: &Reach, node: usize) -> String {
        let path = self.path_to(reach, node);
        let keys: Vec<&str> = path.iter().map(|&n| self.nodes[n].key.as_str()).collect();
        if keys.len() <= 5 {
            keys.join(" -> ")
        } else {
            format!(
                "{} -> {} -> ... -> {} -> {}",
                keys[0],
                keys[1],
                keys[keys.len() - 2],
                keys[keys.len() - 1]
            )
        }
    }
}

/// Resolves one call to its plausible workspace targets.
fn resolve(
    parsed: &[ParsedFile],
    nodes: &[NodeInfo],
    by_name: &HashMap<&str, Vec<usize>>,
    caller: &NodeInfo,
    call: &Call,
) -> Vec<usize> {
    let Some(cands) = by_name.get(call.name.as_str()) else {
        return Vec::new();
    };
    let caller_fn = &parsed[caller.file].fns[caller.item];
    let live: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&n| !parsed[nodes[n].file].fns[nodes[n].item].is_test)
        .collect();
    let same_file = |n: &usize| nodes[*n].file == caller.file;
    let same_crate = |n: &usize| parsed[nodes[*n].file].krate == parsed[caller.file].krate;

    if call.method {
        let is_method =
            |n: &usize| parsed[nodes[*n].file].fns[nodes[*n].item].impl_type.is_some();
        let in_file: Vec<usize> =
            live.iter().copied().filter(|n| same_file(n) && is_method(n)).collect();
        if STD_METHODS.contains(&call.name.as_str()) {
            // Only a `self.…` receiver may pin a std-colliding name to a
            // method defined in the same file; anything else is std.
            return if call.recv_self { in_file } else { Vec::new() };
        }
        if !in_file.is_empty() {
            return in_file;
        }
        let in_crate: Vec<usize> =
            live.iter().copied().filter(|n| same_crate(n) && is_method(n)).collect();
        if !in_crate.is_empty() {
            return in_crate;
        }
        return live.iter().copied().filter(|n| is_method(n)).collect();
    }

    // Free / path-qualified call.
    let mut qual: Vec<&str> = call.qualifier.iter().map(|s| s.as_str()).collect();
    let crate_local = qual.first() == Some(&"crate");
    qual.retain(|s| *s != "crate" && *s != "super");
    // `Self::helper` means the caller's own impl type.
    if qual.last() == Some(&"Self") {
        match &caller_fn.impl_type {
            Some(ty) => {
                let ty = ty.clone();
                return live
                    .iter()
                    .copied()
                    .filter(|&n| {
                        same_crate(&n)
                            && parsed[nodes[n].file].fns[nodes[n].item].impl_type.as_deref()
                                == Some(ty.as_str())
                    })
                    .collect();
            }
            None => return Vec::new(),
        }
    }

    if qual.is_empty() {
        let is_free =
            |n: &usize| parsed[nodes[*n].file].fns[nodes[*n].item].impl_type.is_none();
        let tier = |pred: &dyn Fn(&usize) -> bool| -> Vec<usize> {
            live.iter().copied().filter(|n| pred(n) && is_free(n)).collect()
        };
        let in_file = tier(&same_file);
        if !in_file.is_empty() {
            return in_file;
        }
        if crate_local {
            return tier(&same_crate);
        }
        let in_crate = tier(&same_crate);
        if !in_crate.is_empty() {
            return in_crate;
        }
        return tier(&|_| true);
    }

    // Last qualifier segment names a type (`Foo::new`), a module
    // (`engine::sample_with`), or a crate (`fault::point`).
    let seg = qual[qual.len() - 1];
    let matches = |n: &usize| {
        let pf = &parsed[nodes[*n].file];
        let f = &pf.fns[nodes[*n].item];
        f.impl_type.as_deref() == Some(seg)
            || f.module.last().map(|m| m.as_str()) == Some(seg)
            || pf.krate == normalize_crate(seg)
    };
    let scoped: Vec<usize> = live
        .iter()
        .copied()
        .filter(|n| matches(n) && (!crate_local || same_crate(n)))
        .collect();
    let in_crate: Vec<usize> = scoped.iter().copied().filter(same_crate).collect();
    if !in_crate.is_empty() {
        return in_crate;
    }
    scoped
}

/// Renders the graph plus per-rule evidence as a JSON document (the
/// `salient-lint graph` payload, validated by `salient_trace::json`).
pub fn render_json(graph: &CallGraph, parsed: &[ParsedFile]) -> String {
    let reach = graph.reachability();
    let mut out = String::from("{\n  \"nodes\": [");
    for (n, info) in graph.nodes.iter().enumerate() {
        let pf = &parsed[info.file];
        let f = &pf.fns[info.item];
        if n > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"id\":{},\"key\":\"{}\",\"file\":\"{}\",\"line\":{},\"entry\":{},\"test\":{}}}",
            n,
            json_escape(&info.key),
            json_escape(&pf.path),
            f.line,
            f.entry,
            f.is_test
        ));
    }
    out.push_str("\n  ],\n  \"edges\": [");
    let mut first = true;
    for (n, targets) in graph.edges.iter().enumerate() {
        for &t in targets {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("[{n},{t}]"));
        }
    }
    out.push_str("],\n  \"entries\": [");
    for (i, &e) in graph.entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&e.to_string());
    }
    out.push_str("],\n  \"reachable\": [");
    let mut first = true;
    for n in 0..graph.nodes.len() {
        if reach.from[n].is_none() {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let path = graph.path_to(&reach, n);
        let path_str: Vec<String> = path.iter().map(|p| p.to_string()).collect();
        out.push_str(&format!(
            "\n    {{\"id\":{},\"path\":[{}]}}",
            n,
            path_str.join(",")
        ));
    }
    let reachable_count = reach.from.iter().filter(|r| r.is_some()).count();
    out.push_str(&format!(
        "\n  ],\n  \"rules\": {{\"panic-reachability\":{{\"entries\":{},\"reachable\":{}}}}}\n}}",
        graph.entries.len(),
        reachable_count
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;
    use crate::source::{FileClass, SourceFile};

    fn graph_of(files: &[(&str, &str)]) -> (Vec<ParsedFile>, CallGraph) {
        let parsed: Vec<ParsedFile> = files
            .iter()
            .map(|(path, src)| {
                let f = SourceFile::parse((*path).into(), src, FileClass::default());
                parse_file(&f)
            })
            .collect();
        let g = CallGraph::build(&parsed);
        (parsed, g)
    }

    fn node(g: &CallGraph, key: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.key == key)
            .unwrap_or_else(|| panic!("no node {key}: {:?}", g.nodes))
    }

    #[test]
    fn cross_crate_qualified_calls_resolve() {
        let (_, g) = graph_of(&[
            (
                "crates/serve/src/core.rs",
                "// lint: entry(panic-reachability)\npub fn step() { fault::point(1); }\n",
            ),
            ("crates/fault/src/lib.rs", "pub fn point(x: u32) { helper(x); }\nfn helper(_x: u32) {}\n"),
        ]);
        let step = node(&g, "serve::step");
        let point = node(&g, "fault::point");
        let helper = node(&g, "fault::helper");
        assert!(g.edges[step].contains(&point));
        assert!(g.edges[point].contains(&helper));
        let reach = g.reachability();
        assert!(reach.from[helper].is_some());
        let path = g.path_to(&reach, helper);
        assert_eq!(path, vec![step, point, helper]);
    }

    #[test]
    fn std_colliding_methods_need_a_self_receiver() {
        let (_, g) = graph_of(&[(
            "crates/serve/src/core.rs",
            "struct W;\nimpl W { fn push(&mut self, v: u64) { let _ = v; } }\n\
             struct S { w: W }\nimpl S {\n  fn f(&mut self) { self.w.push(1); }\n  fn g(&mut self, v: Vec<u32>) { let mut v = v; v.push(1); }\n}\n",
        )]);
        let push = node(&g, "serve::W::push");
        let f = node(&g, "serve::S::f");
        let gg = node(&g, "serve::S::g");
        assert!(g.edges[f].contains(&push), "self.w.push pins to the local impl");
        assert!(!g.edges[gg].contains(&push), "v.push stays std");
    }

    #[test]
    fn method_calls_prefer_locality_tiers() {
        let (_, g) = graph_of(&[
            (
                "crates/serve/src/core.rs",
                "impl Core { fn run(&mut self, s: Sampler) { s.sample(); } }\n",
            ),
            ("crates/sampler/src/lib.rs", "impl Sampler { pub fn sample(&self) {} }\n"),
        ]);
        let run = node(&g, "serve::Core::run");
        let sample = node(&g, "sampler::Sampler::sample");
        assert!(g.edges[run].contains(&sample));
    }

    #[test]
    fn self_qualified_calls_resolve_to_own_impl() {
        let (_, g) = graph_of(&[(
            "crates/serve/src/core.rs",
            "impl Core {\n  fn a(&self) { Self::b(); }\n  fn b() {}\n}\n",
        )]);
        let a = node(&g, "serve::Core::a");
        let b = node(&g, "serve::Core::b");
        assert!(g.edges[a].contains(&b));
    }

    #[test]
    fn test_fns_are_not_graph_targets() {
        let (_, g) = graph_of(&[(
            "crates/x/src/lib.rs",
            "// lint: entry(panic-reachability)\npub fn live() { probe(); }\n\
             #[cfg(test)]\nmod tests { pub fn probe() {} }\n",
        )]);
        let live = node(&g, "x::live");
        assert!(g.edges[live].is_empty(), "{:?}", g.edges[live]);
    }

    #[test]
    fn graph_json_is_valid() {
        let (parsed, g) = graph_of(&[(
            "crates/x/src/lib.rs",
            "// lint: entry(panic-reachability)\npub fn live() { helper(); }\nfn helper() {}\n",
        )]);
        let json = render_json(&g, &parsed);
        let v = salient_trace::json::parse(&json).expect("graph JSON parses");
        let nodes = v.get("nodes").and_then(|n| n.as_arr()).expect("nodes array");
        assert_eq!(nodes.len(), 2);
        assert_eq!(
            v.get("rules")
                .and_then(|r| r.get("panic-reachability"))
                .and_then(|r| r.get("reachable"))
                .and_then(|n| n.as_num()),
            Some(2.0)
        );
    }
}
