//! The element schema registry: what a description may say about each
//! element kind, and how a validated description becomes live objects.
//!
//! Each built-in kind declares its typed parameters (with defaults),
//! its output arity (none / single / labelled), and which match-action
//! table kinds it accepts. [`PipelineDesc::validate`] checks against
//! these schemas; the crate-internal `construct` lowering then turns a
//! checked `(kind, params)`
//! pair to a live element plus the [`ElementHandle`] the patch applier
//! uses to address its tables. Kinds the registry does not know can be
//! supplied by the compiling host as *externals* (see
//! [`Compiler::external`](super::Compiler::external)) — that is how
//! the simulator injects its egress collector into described
//! pipelines.
//!
//! [`PipelineDesc::validate`]: super::PipelineDesc::validate

use std::net::Ipv4Addr;
use std::sync::Arc;

use opencom::component::Component;
use opencom::error::{Error, Result};

use netkit_packet::sketch::FlowSketch;

use crate::api::IClassifier;
use crate::elements::{ClassifierEngine, Counter, Discard, IRouteControl, RouteLookup, Tee};
use crate::flow::{ConnTracker, Guard, GuardConfig, L4LoadBalancer, Nat44, Nat44Config};
use crate::shard::{RebalanceController, RebalancePolicy};

use super::compile::ElementHandle;
use super::{ControlDesc, ParamValue, Params};

/// A parameter's schema type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParamType {
    /// Unsigned integer.
    Int,
    /// Floating point (accepts int literals).
    Float,
    /// Boolean.
    Bool,
    /// String.
    Str,
}

impl ParamType {
    fn name(self) -> &'static str {
        match self {
            ParamType::Int => "int",
            ParamType::Float => "float",
            ParamType::Bool => "bool",
            ParamType::Str => "str",
        }
    }

    fn accepts(self, value: &ParamValue) -> bool {
        match self {
            // Float knobs accept integer literals (`1` for `1.0`).
            ParamType::Float => matches!(value, ParamValue::Float(_) | ParamValue::Int(_)),
            other => value.param_type() == other,
        }
    }
}

/// How many outputs a kind exposes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputKind {
    /// A sink: no outgoing edges allowed.
    None,
    /// Exactly one unlabelled outgoing edge.
    Single,
    /// Any number of labelled outgoing edges.
    Labelled,
}

/// Which match-action table a kind accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TableKind {
    /// Classifier filter entries.
    Filter,
    /// Routing-table entries.
    Route,
    /// Load-balancer backend entries.
    Backend,
}

impl TableKind {
    pub(super) fn name(self) -> &'static str {
        match self {
            TableKind::Filter => "filter",
            TableKind::Route => "route",
            TableKind::Backend => "backend",
        }
    }
}

/// One typed parameter a kind accepts.
#[derive(Clone, Copy, Debug)]
pub struct ParamSpec {
    /// Parameter name.
    pub name: &'static str,
    /// Expected type.
    pub ty: ParamType,
    /// Whether a description must supply it.
    pub required: bool,
}

const fn opt(name: &'static str, ty: ParamType) -> ParamSpec {
    ParamSpec {
        name,
        ty,
        required: false,
    }
}

const fn req(name: &'static str, ty: ParamType) -> ParamSpec {
    ParamSpec {
        name,
        ty,
        required: true,
    }
}

/// One element kind's schema.
#[derive(Clone, Copy, Debug)]
pub struct ElementSchema {
    /// Registry kind name.
    pub kind: &'static str,
    /// Accepted parameters.
    pub params: &'static [ParamSpec],
    /// Output arity.
    pub output: OutputKind,
    /// Accepted table kinds.
    pub tables: &'static [TableKind],
}

impl ElementSchema {
    /// Type-checks `params` against this schema.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::CfViolation`] on an unknown or mistyped
    /// parameter, or a missing required one.
    pub fn check_params(&self, element: &str, params: &Params) -> Result<()> {
        let rule = |msg: String| Error::CfViolation {
            framework: "desc".to_owned(),
            rule: msg,
        };
        for (key, value) in params {
            let Some(spec) = self.params.iter().find(|s| s.name == key) else {
                return Err(rule(format!(
                    "element `{element}` ({}): unknown parameter `{key}`",
                    self.kind
                )));
            };
            if !spec.ty.accepts(value) {
                return Err(rule(format!(
                    "element `{element}` ({}): `{key}` expects {}",
                    self.kind,
                    spec.ty.name()
                )));
            }
        }
        for spec in self.params.iter().filter(|s| s.required) {
            if !params.contains_key(spec.name) {
                return Err(rule(format!(
                    "element `{element}` ({}): missing required parameter `{}`",
                    self.kind, spec.name
                )));
            }
        }
        Ok(())
    }
}

const SCHEMAS: &[ElementSchema] = &[
    ElementSchema {
        kind: "counter",
        params: &[],
        output: OutputKind::Single,
        tables: &[],
    },
    ElementSchema {
        kind: "discard",
        params: &[],
        output: OutputKind::None,
        tables: &[],
    },
    ElementSchema {
        kind: "tee",
        params: &[],
        output: OutputKind::Labelled,
        tables: &[],
    },
    ElementSchema {
        kind: "classifier",
        params: &[],
        output: OutputKind::Labelled,
        tables: &[TableKind::Filter],
    },
    ElementSchema {
        kind: "route",
        params: &[],
        output: OutputKind::Labelled,
        tables: &[TableKind::Route],
    },
    ElementSchema {
        kind: "conntrack",
        params: &[
            opt("capacity", ParamType::Int),
            opt("idle_timeout", ParamType::Int),
            opt("closing_timeout", ParamType::Int),
            opt("syn_timeout", ParamType::Int),
        ],
        output: OutputKind::Single,
        tables: &[],
    },
    ElementSchema {
        kind: "nat44",
        params: &[
            opt("external_ip", ParamType::Str),
            opt("port_base", ParamType::Int),
            opt("blocks", ParamType::Int),
            opt("block_size", ParamType::Int),
            opt("table_capacity", ParamType::Int),
            opt("idle_timeout", ParamType::Int),
        ],
        output: OutputKind::Single,
        tables: &[],
    },
    ElementSchema {
        kind: "l4lb",
        params: &[
            req("vip", ParamType::Str),
            req("vport", ParamType::Int),
            opt("capacity", ParamType::Int),
            opt("idle_timeout", ParamType::Int),
        ],
        output: OutputKind::Single,
        tables: &[TableKind::Backend],
    },
    ElementSchema {
        kind: "guard",
        params: &[
            opt("byte_threshold", ParamType::Int),
            opt("window_budget", ParamType::Int),
            opt("table_capacity", ParamType::Int),
            opt("syn_limit", ParamType::Int),
            opt("syn_budget", ParamType::Int),
        ],
        output: OutputKind::Single,
        tables: &[],
    },
];

/// Looks up a built-in kind's schema.
pub fn schema_for(kind: &str) -> Option<&'static ElementSchema> {
    SCHEMAS.iter().find(|s| s.kind == kind)
}

/// The registry's kind names, in declaration order.
pub fn known_kinds() -> Vec<&'static str> {
    SCHEMAS.iter().map(|s| s.kind).collect()
}

fn get_u64(params: &Params, key: &str, default: u64) -> u64 {
    params
        .get(key)
        .and_then(ParamValue::as_u64)
        .unwrap_or(default)
}

fn get_f64(params: &Params, key: &str, default: f64) -> f64 {
    params
        .get(key)
        .and_then(ParamValue::as_f64)
        .unwrap_or(default)
}

fn parse_ip(params: &Params, key: &str, default: Ipv4Addr) -> Result<Ipv4Addr> {
    match params.get(key).and_then(ParamValue::as_str) {
        None => Ok(default),
        Some(s) => s.parse().map_err(|_| Error::StaleReference {
            what: format!("`{key}` address `{s}`"),
        }),
    }
}

/// Lowers a checked `(kind, params)` pair to a live element. `sketch`
/// is the shard's byte sketch — the guard reads it, everything else
/// ignores it.
///
/// # Errors
///
/// Fails with [`Error::StaleReference`] on an unknown kind (the
/// validator rejects these earlier) or a malformed address parameter.
pub(super) fn construct(
    kind: &str,
    params: &Params,
    sketch: &Arc<FlowSketch>,
) -> Result<(Arc<dyn Component>, ElementHandle)> {
    Ok(match kind {
        "counter" => (Counter::new(), ElementHandle::Plain),
        "discard" => (Discard::new(), ElementHandle::Plain),
        "tee" => (Tee::new(), ElementHandle::Plain),
        "classifier" => {
            let engine = ClassifierEngine::new();
            let handle: Arc<dyn IClassifier> = engine.clone();
            (engine, ElementHandle::Classifier(handle))
        }
        "route" => {
            let lookup = RouteLookup::new();
            let handle: Arc<dyn IRouteControl> = lookup.clone();
            (lookup, ElementHandle::Route(handle))
        }
        "conntrack" => {
            let tracker = ConnTracker::with_timeouts(
                get_u64(params, "capacity", 4096) as usize,
                get_u64(params, "idle_timeout", u64::MAX),
                get_u64(params, "closing_timeout", u64::MAX),
                get_u64(params, "syn_timeout", u64::MAX),
            );
            (tracker, ElementHandle::Plain)
        }
        "nat44" => {
            let defaults = Nat44Config::default();
            let cfg = Nat44Config {
                external_ip: parse_ip(params, "external_ip", defaults.external_ip)?,
                port_base: get_u64(params, "port_base", defaults.port_base.into()) as u16,
                blocks: get_u64(params, "blocks", defaults.blocks.into()) as u16,
                block_size: get_u64(params, "block_size", defaults.block_size.into()) as u16,
                table_capacity: get_u64(params, "table_capacity", defaults.table_capacity as u64)
                    as usize,
                idle_timeout: get_u64(params, "idle_timeout", defaults.idle_timeout),
            };
            (Nat44::new(cfg), ElementHandle::Plain)
        }
        "l4lb" => {
            let vip = parse_ip(params, "vip", Ipv4Addr::UNSPECIFIED)?;
            let vport = get_u64(params, "vport", 0) as u16;
            let lb = L4LoadBalancer::new(
                vip,
                vport,
                get_u64(params, "capacity", 4096) as usize,
                get_u64(params, "idle_timeout", u64::MAX),
            );
            (lb.clone(), ElementHandle::Lb(lb))
        }
        "guard" => {
            let defaults = GuardConfig::default();
            let cfg = GuardConfig {
                byte_threshold: get_u64(params, "byte_threshold", defaults.byte_threshold),
                window_budget: get_u64(params, "window_budget", defaults.window_budget),
                table_capacity: get_u64(params, "table_capacity", defaults.table_capacity as u64)
                    as usize,
                syn_limit: get_u64(params, "syn_limit", defaults.syn_limit),
                syn_budget: get_u64(params, "syn_budget", defaults.syn_budget),
            };
            (Guard::new(Arc::clone(sketch), cfg), ElementHandle::Plain)
        }
        other => {
            return Err(Error::StaleReference {
                what: format!("element kind `{other}`"),
            });
        }
    })
}

/// The control section's accepted knobs — all optional: one per
/// [`RebalancePolicy`] field (`arm` sets `arm_ticks`) plus the
/// controller's `cooldown_ticks`.
pub const CONTROL_PARAMS: &[ParamSpec] = &[
    opt("max_imbalance", ParamType::Float),
    opt("exit", ParamType::Float),
    opt("arm", ParamType::Int),
    opt("min_samples", ParamType::Int),
    opt("pressure_weight", ParamType::Float),
    opt("heavy_blend", ParamType::Float),
    opt("decay", ParamType::Float),
    opt("cooldown_ticks", ParamType::Int),
];

/// Validates a control section: known + typed knobs.
///
/// # Errors
///
/// Fails with [`Error::CfViolation`] on unknown or mistyped knobs.
pub fn check_control(ctl: &ControlDesc) -> Result<()> {
    for (key, value) in &ctl.params {
        let Some(spec) = CONTROL_PARAMS.iter().find(|s| s.name == key) else {
            return Err(Error::CfViolation {
                framework: "desc".to_owned(),
                rule: format!("unknown control parameter `{key}`"),
            });
        };
        if !spec.ty.accepts(value) {
            return Err(Error::CfViolation {
                framework: "desc".to_owned(),
                rule: format!("control parameter `{key}` expects {}", spec.ty.name()),
            });
        }
    }
    Ok(())
}

/// Builds the [`RebalanceController`] a control section configures.
/// Unset knobs fall back to [`RebalancePolicy::default`], except
/// `exit`, which follows the section's `max_imbalance` (so a section
/// that sets neither `exit` nor `arm` judges without a band), and
/// `cooldown_ticks`, which defaults to 0.
///
/// # Errors
///
/// Fails like [`check_control`] on unknown or mistyped knobs.
pub fn compile_control(ctl: &ControlDesc) -> Result<RebalanceController> {
    check_control(ctl)?;
    let p = &ctl.params;
    let d = RebalancePolicy::default();
    let max_imbalance = get_f64(p, "max_imbalance", d.max_imbalance);
    let policy = RebalancePolicy {
        max_imbalance,
        exit: get_f64(p, "exit", max_imbalance),
        arm_ticks: get_u64(p, "arm", d.arm_ticks.into()) as u32,
        min_samples: get_u64(p, "min_samples", d.min_samples),
        pressure_weight: get_f64(p, "pressure_weight", d.pressure_weight),
        heavy_blend: get_f64(p, "heavy_blend", d.heavy_blend),
        decay: get_f64(p, "decay", d.decay),
    };
    Ok(RebalanceController::new(
        policy,
        get_u64(p, "cooldown_ticks", 0),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netkit_packet::sketch::SketchConfig;

    fn sketch() -> Arc<FlowSketch> {
        Arc::new(FlowSketch::new(SketchConfig::default()))
    }

    #[test]
    fn every_schema_kind_constructs_with_defaults() {
        for schema in SCHEMAS {
            let mut params = Params::new();
            // Required parameters get a plausible value.
            for spec in schema.params.iter().filter(|s| s.required) {
                let v = match spec.ty {
                    ParamType::Int => ParamValue::Int(443),
                    ParamType::Float => ParamValue::Float(1.0),
                    ParamType::Bool => ParamValue::Bool(true),
                    ParamType::Str => ParamValue::Str("10.0.0.1".into()),
                };
                params.insert(spec.name.to_owned(), v);
            }
            schema.check_params("x", &params).unwrap();
            construct(schema.kind, &params, &sketch())
                .unwrap_or_else(|e| panic!("{} failed: {e}", schema.kind));
        }
    }

    #[test]
    fn float_knobs_accept_int_literals() {
        assert!(ParamType::Float.accepts(&ParamValue::Int(1)));
        assert!(!ParamType::Int.accepts(&ParamValue::Float(1.0)));
    }

    #[test]
    fn control_compiles_onto_the_policy_defaults() {
        let empty = ControlDesc {
            params: Params::new(),
        };
        let built = compile_control(&empty).unwrap();
        assert_eq!(*built.policy(), RebalancePolicy::default());

        let mut params = Params::new();
        params.insert("max_imbalance".into(), ParamValue::Float(1.5));
        params.insert("arm".into(), ParamValue::Int(3));
        let banded = compile_control(&ControlDesc { params }).unwrap();
        let policy = *banded.policy();
        assert_eq!(policy.max_imbalance, 1.5);
        assert_eq!(policy.exit, 1.5, "exit follows max_imbalance");
        assert_eq!(policy.arm_ticks, 3);
        assert_eq!(policy.min_samples, RebalancePolicy::default().min_samples);

        let mut params = Params::new();
        params.insert("alpha".into(), ParamValue::Float(0.3));
        assert!(compile_control(&ControlDesc { params }).is_err());
    }
}
