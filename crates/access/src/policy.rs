//! The access-control policy language.
//!
//! Policies in v-clouds must be evaluated against *context* — role in the
//! current group, kinematics, automation level, emergency state — rather
//! than identity (paper §III-C). This module gives policies as boolean
//! expression trees over typed atoms, with explicit emergency-escalation
//! semantics: a policy can declare additional grants that apply only in
//! emergency context, which is how "additional permissions … should be
//! granted … in milliseconds" (§III-C) is realized — escalation is a
//! context-bit flip, not a re-negotiation.

use vc_sim::geom::{Point, Rect};
use vc_sim::node::SaeLevel;
use vc_sim::time::SimTime;

/// Roles a vehicle can hold inside a v-cloud group (paper §III-A: "different
/// vehicles … may serve as different roles for different applications").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Role {
    /// Ordinary member lending resources.
    Member,
    /// Elected group head / broker.
    Head,
    /// Storage/buffering node.
    Storage,
    /// Sensing data provider.
    Sensor,
    /// Gateway to infrastructure.
    Gateway,
}

/// Actions a subject may request on a protected object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Action {
    /// Read the data.
    Read,
    /// Append/modify.
    Write,
    /// Execute a computation over the data.
    Compute,
    /// Re-share with further vehicles.
    Delegate,
}

/// The evaluation context: everything about the requester and environment
/// that policies may reference. No identities — only attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct Context {
    /// The requester's current role in the group.
    pub role: Role,
    /// The requester's speed, m/s.
    pub speed: f64,
    /// The requester's position.
    pub position: Point,
    /// The requester's SAE automation level.
    pub automation: SaeLevel,
    /// Whether the cloud is in emergency mode.
    pub emergency: bool,
    /// Evaluation time.
    pub now: SimTime,
}

impl Context {
    /// A plain member context useful as a starting point in tests/examples.
    pub fn member_at(position: Point, now: SimTime) -> Context {
        Context {
            role: Role::Member,
            speed: 0.0,
            position,
            automation: SaeLevel::L3,
            emergency: false,
            now,
        }
    }
}

/// A boolean expression over context atoms.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Always true.
    True,
    /// Always false.
    False,
    /// Requester holds exactly this role.
    HasRole(Role),
    /// Requester's speed is below the bound (m/s).
    SpeedBelow(f64),
    /// Requester's automation level is at least this.
    AutomationAtLeast(SaeLevel),
    /// Requester is inside the region.
    WithinRegion(Rect),
    /// Cloud is in emergency mode.
    EmergencyActive,
    /// Valid only before this instant.
    Before(SimTime),
    /// Valid only at/after this instant.
    After(SimTime),
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
}

impl Expr {
    /// Evaluates against a context.
    pub fn eval(&self, ctx: &Context) -> bool {
        match self {
            Expr::True => true,
            Expr::False => false,
            Expr::HasRole(r) => ctx.role == *r,
            Expr::SpeedBelow(v) => ctx.speed < *v,
            Expr::AutomationAtLeast(l) => ctx.automation >= *l,
            Expr::WithinRegion(r) => r.contains(ctx.position),
            Expr::EmergencyActive => ctx.emergency,
            Expr::Before(t) => ctx.now < *t,
            Expr::After(t) => ctx.now >= *t,
            Expr::And(a, b) => a.eval(ctx) && b.eval(ctx),
            Expr::Or(a, b) => a.eval(ctx) || b.eval(ctx),
            Expr::Not(e) => !e.eval(ctx),
        }
    }

    /// `a AND b` convenience.
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// `a OR b` convenience.
    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }

    /// `NOT a` convenience.
    pub fn negate(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// Number of nodes (policy complexity; drives evaluation-cost benches).
    pub fn size(&self) -> usize {
        match self {
            Expr::And(a, b) | Expr::Or(a, b) => 1 + a.size() + b.size(),
            Expr::Not(e) => 1 + e.size(),
            _ => 1,
        }
    }
}

/// A decision with its reason, for audit trails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Granted under the normal rule.
    Permit,
    /// Granted only because emergency escalation applied.
    PermitEmergency,
    /// Denied.
    Deny,
}

impl Decision {
    /// `true` for either permit variant.
    pub fn is_permit(self) -> bool {
        matches!(self, Decision::Permit | Decision::PermitEmergency)
    }
}

/// A policy: per-action rules plus optional emergency escalations.
/// Unlisted actions are denied (default-deny).
#[derive(Debug, Clone, Default)]
pub struct Policy {
    rules: Vec<(Action, Expr)>,
    emergency_rules: Vec<(Action, Expr)>,
}

impl Policy {
    /// An empty, deny-everything policy.
    pub fn new() -> Policy {
        Policy::default()
    }

    /// Adds a normal rule: `action` allowed when `expr` holds.
    pub fn allow(mut self, action: Action, expr: Expr) -> Policy {
        self.rules.push((action, expr));
        self
    }

    /// Adds an emergency escalation: `action` additionally allowed when the
    /// context is in emergency mode and `expr` holds.
    pub fn allow_in_emergency(mut self, action: Action, expr: Expr) -> Policy {
        self.emergency_rules.push((action, expr));
        self
    }

    /// Evaluates a request.
    pub fn decide(&self, action: Action, ctx: &Context) -> Decision {
        for (a, expr) in &self.rules {
            if *a == action && expr.eval(ctx) {
                return Decision::Permit;
            }
        }
        if ctx.emergency {
            for (a, expr) in &self.emergency_rules {
                if *a == action && expr.eval(ctx) {
                    return Decision::PermitEmergency;
                }
            }
        }
        Decision::Deny
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Context {
        Context {
            role: Role::Member,
            speed: 10.0,
            position: Point::new(50.0, 50.0),
            automation: SaeLevel::L3,
            emergency: false,
            now: SimTime::from_secs(100),
        }
    }

    #[test]
    fn atoms_evaluate() {
        let c = ctx();
        assert!(Expr::True.eval(&c));
        assert!(!Expr::False.eval(&c));
        assert!(Expr::HasRole(Role::Member).eval(&c));
        assert!(!Expr::HasRole(Role::Head).eval(&c));
        assert!(Expr::SpeedBelow(11.0).eval(&c));
        assert!(!Expr::SpeedBelow(10.0).eval(&c));
        assert!(Expr::AutomationAtLeast(SaeLevel::L3).eval(&c));
        assert!(!Expr::AutomationAtLeast(SaeLevel::L4).eval(&c));
        let region = Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
        assert!(Expr::WithinRegion(region).eval(&c));
        assert!(!Expr::EmergencyActive.eval(&c));
        assert!(Expr::Before(SimTime::from_secs(200)).eval(&c));
        assert!(!Expr::Before(SimTime::from_secs(100)).eval(&c));
        assert!(Expr::After(SimTime::from_secs(100)).eval(&c));
    }

    #[test]
    fn combinators() {
        let c = ctx();
        assert!(Expr::True.and(Expr::HasRole(Role::Member)).eval(&c));
        assert!(!Expr::False.and(Expr::True).eval(&c));
        assert!(Expr::False.or(Expr::True).eval(&c));
        assert!(Expr::False.negate().eval(&c));
        let nested = Expr::HasRole(Role::Head)
            .or(Expr::SpeedBelow(20.0).and(Expr::AutomationAtLeast(SaeLevel::L2)));
        assert!(nested.eval(&c));
        assert_eq!(nested.size(), 5);
    }

    #[test]
    fn default_deny() {
        let p = Policy::new();
        assert_eq!(p.decide(Action::Read, &ctx()), Decision::Deny);
    }

    #[test]
    fn first_matching_rule_permits() {
        let p = Policy::new()
            .allow(Action::Read, Expr::HasRole(Role::Head))
            .allow(Action::Read, Expr::SpeedBelow(50.0));
        assert_eq!(p.decide(Action::Read, &ctx()), Decision::Permit);
        assert_eq!(p.decide(Action::Write, &ctx()), Decision::Deny);
    }

    #[test]
    fn emergency_escalation_only_in_emergency() {
        let p = Policy::new()
            .allow(Action::Read, Expr::HasRole(Role::Head))
            .allow_in_emergency(Action::Read, Expr::True);
        let normal = ctx();
        assert_eq!(p.decide(Action::Read, &normal), Decision::Deny);
        let mut crisis = ctx();
        crisis.emergency = true;
        assert_eq!(p.decide(Action::Read, &crisis), Decision::PermitEmergency);
        assert!(Decision::PermitEmergency.is_permit());
    }

    #[test]
    fn normal_rule_wins_over_emergency_label() {
        let p = Policy::new()
            .allow(Action::Read, Expr::True)
            .allow_in_emergency(Action::Read, Expr::True);
        let mut crisis = ctx();
        crisis.emergency = true;
        assert_eq!(p.decide(Action::Read, &crisis), Decision::Permit);
    }

    #[test]
    fn role_and_region_policy() {
        // "Storage nodes may write only inside the staging area."
        let staging = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
        let p = Policy::new()
            .allow(Action::Write, Expr::HasRole(Role::Storage).and(Expr::WithinRegion(staging)));
        let mut c = ctx();
        c.role = Role::Storage;
        assert_eq!(p.decide(Action::Write, &c), Decision::Deny, "outside region");
        c.position = Point::new(5.0, 5.0);
        assert_eq!(p.decide(Action::Write, &c), Decision::Permit);
        c.role = Role::Member;
        assert_eq!(p.decide(Action::Write, &c), Decision::Deny, "wrong role");
    }
}
