//! Fine-grained access control (paper §5.3).
//!
//! The paper distinguishes three levels of control federation enables
//! that a centralized map cannot:
//!
//! - **User-level** — "a map server covering a university may only serve
//!   users who can authenticate with the university's email address",
//! - **Service-level** — "provide its tile service to a large set of
//!   users ... localization service only to a small set",
//! - **Application-level** — "provide localization service only if it
//!   comes from the campus navigation application".

use std::collections::HashMap;

/// The services a map server can gate independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceKind {
    /// Capability discovery (`Hello`).
    Info,
    /// Forward geocoding.
    Geocode,
    /// Reverse geocoding.
    ReverseGeocode,
    /// Location-based search.
    Search,
    /// Routing and portal matrices.
    Route,
    /// Localization.
    Localize,
    /// Tile rendering.
    Tiles,
    /// Map updates (patches).
    Update,
}

/// All service kinds, for iteration.
pub(crate) const ALL_SERVICES: &[ServiceKind] = &[
    ServiceKind::Info,
    ServiceKind::Geocode,
    ServiceKind::ReverseGeocode,
    ServiceKind::Search,
    ServiceKind::Route,
    ServiceKind::Localize,
    ServiceKind::Tiles,
    ServiceKind::Update,
];

/// The identity a request carries.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Principal {
    /// Authenticated user identity (e.g. `"alice@cmu.edu"`), if any.
    pub user: Option<String>,
    /// The requesting application (e.g. `"campus-nav"`), if declared.
    pub app: Option<String>,
}

impl Principal {
    /// An anonymous request.
    pub fn anonymous() -> Self {
        Self::default()
    }

    /// A user principal.
    pub fn user(user: impl Into<String>) -> Self {
        Self {
            user: Some(user.into()),
            app: None,
        }
    }

    /// A user principal acting through an application.
    pub fn user_via_app(user: impl Into<String>, app: impl Into<String>) -> Self {
        Self {
            user: Some(user.into()),
            app: Some(app.into()),
        }
    }
}

/// One access rule. Rules are evaluated in order; the first match
/// decides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rule {
    /// Allow everyone.
    AllowAll,
    /// Allow authenticated users whose identity ends with the given
    /// domain suffix (user-level control).
    AllowUserDomain(String),
    /// Allow the exact listed users.
    AllowUsers(Vec<String>),
    /// Allow requests from a specific application (application-level
    /// control).
    AllowApp(String),
    /// Deny everyone (terminal).
    DenyAll,
}

impl Rule {
    /// Whether the rule matches (and therefore allows) the principal;
    /// `None` means "no opinion, try the next rule"; `Some(allow)` is a
    /// decision.
    fn evaluate(&self, p: &Principal) -> Option<bool> {
        match self {
            Rule::AllowAll => Some(true),
            Rule::AllowUserDomain(domain) => match &p.user {
                Some(u) if u.ends_with(domain.as_str()) => Some(true),
                _ => None,
            },
            Rule::AllowUsers(users) => match &p.user {
                Some(u) if users.contains(u) => Some(true),
                _ => None,
            },
            Rule::AllowApp(app) => match &p.app {
                Some(a) if a == app => Some(true),
                _ => None,
            },
            Rule::DenyAll => Some(false),
        }
    }
}

/// A per-service rule table with a default chain (paper §5.3 service-level
/// control: different services can have entirely different policies).
#[derive(Debug, Clone, Default)]
pub struct AccessPolicy {
    per_service: HashMap<ServiceKind, Vec<Rule>>,
    default_rules: Vec<Rule>,
}

impl AccessPolicy {
    /// A policy that allows everything (the open-data default).
    pub fn open() -> Self {
        Self {
            per_service: HashMap::new(),
            default_rules: vec![Rule::AllowAll],
        }
    }

    /// A policy that denies everything except capability discovery.
    pub fn locked() -> Self {
        let mut p = Self {
            per_service: HashMap::new(),
            default_rules: vec![Rule::DenyAll],
        };
        p.per_service
            .insert(ServiceKind::Info, vec![Rule::AllowAll]);
        p
    }

    /// Sets the rule chain for one service.
    pub fn set(&mut self, service: ServiceKind, rules: Vec<Rule>) -> &mut Self {
        self.per_service.insert(service, rules);
        self
    }

    /// Builder-style [`AccessPolicy::set`].
    pub fn with(mut self, service: ServiceKind, rules: Vec<Rule>) -> Self {
        self.set(service, rules);
        self
    }

    /// Whether `principal` may use `service`. Rules are evaluated in
    /// order; an unmatched chain denies (default-deny).
    pub fn allows(&self, principal: &Principal, service: ServiceKind) -> bool {
        let chain = self
            .per_service
            .get(&service)
            .unwrap_or(&self.default_rules);
        for rule in chain {
            if let Some(decision) = rule.evaluate(principal) {
                return decision;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_allows_anonymous() {
        let p = AccessPolicy::open();
        assert!(p.allows(&Principal::anonymous(), ServiceKind::Search));
        assert!(p.allows(&Principal::user("x@y.com"), ServiceKind::Tiles));
    }

    #[test]
    fn locked_denies_all_but_info() {
        let p = AccessPolicy::locked();
        assert!(!p.allows(&Principal::user("x@y.com"), ServiceKind::Search));
        assert!(!p.allows(&Principal::anonymous(), ServiceKind::Localize));
        assert!(p.allows(&Principal::anonymous(), ServiceKind::Info));
    }

    #[test]
    fn user_domain_rule() {
        // The university example from paper §5.3.
        let policy = AccessPolicy::locked().with(
            ServiceKind::Search,
            vec![Rule::AllowUserDomain("@cmu.edu".into()), Rule::DenyAll],
        );
        assert!(policy.allows(&Principal::user("alice@cmu.edu"), ServiceKind::Search));
        assert!(!policy.allows(&Principal::user("bob@gmail.com"), ServiceKind::Search));
        assert!(!policy.allows(&Principal::anonymous(), ServiceKind::Search));
    }

    #[test]
    fn service_level_differentiation() {
        // Tiles for everyone, localization for physical-access users.
        let policy = AccessPolicy::locked()
            .with(ServiceKind::Tiles, vec![Rule::AllowAll])
            .with(
                ServiceKind::Localize,
                vec![
                    Rule::AllowUsers(vec!["staff@store.com".into()]),
                    Rule::DenyAll,
                ],
            );
        let visitor = Principal::user("someone@web.com");
        assert!(policy.allows(&visitor, ServiceKind::Tiles));
        assert!(!policy.allows(&visitor, ServiceKind::Localize));
        assert!(policy.allows(&Principal::user("staff@store.com"), ServiceKind::Localize));
    }

    #[test]
    fn application_level_rule() {
        let policy = AccessPolicy::locked().with(
            ServiceKind::Localize,
            vec![Rule::AllowApp("campus-nav".into()), Rule::DenyAll],
        );
        assert!(policy.allows(
            &Principal::user_via_app("anyone@x.com", "campus-nav"),
            ServiceKind::Localize
        ));
        assert!(!policy.allows(
            &Principal::user_via_app("anyone@x.com", "other-app"),
            ServiceKind::Localize
        ));
    }

    #[test]
    fn rule_order_first_match_wins() {
        let policy = AccessPolicy::open().with(
            ServiceKind::Update,
            vec![
                Rule::AllowUsers(vec!["admin@store.com".into()]),
                Rule::DenyAll,
                Rule::AllowAll, // unreachable
            ],
        );
        assert!(policy.allows(&Principal::user("admin@store.com"), ServiceKind::Update));
        assert!(!policy.allows(&Principal::user("other@store.com"), ServiceKind::Update));
    }

    #[test]
    fn empty_chain_denies() {
        let policy = AccessPolicy::open().with(ServiceKind::Update, vec![]);
        assert!(!policy.allows(&Principal::anonymous(), ServiceKind::Update));
    }

    #[test]
    fn domain_rule_falls_through_not_denies() {
        // A domain rule that doesn't match defers to later rules.
        let policy = AccessPolicy::locked().with(
            ServiceKind::Search,
            vec![
                Rule::AllowUserDomain("@cmu.edu".into()),
                Rule::AllowApp("visitor-app".into()),
                Rule::DenyAll,
            ],
        );
        assert!(policy.allows(
            &Principal::user_via_app("guest@gmail.com", "visitor-app"),
            ServiceKind::Search
        ));
    }
}
