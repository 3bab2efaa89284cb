//! Per-tenant quotas and live-job accounting.
//!
//! A tenant is a client-supplied name carried in the `HELLO` frame. The
//! server may attach a [`TenantQuota`] to any name — a cap on concurrent
//! sorts, a cap on pages per sort, and an optional priority override — and
//! the server's tenant registry enforces the live-job cap with an RAII guard
//! so a slot is returned no matter how the session ends (success, cancel,
//! panic or disconnect). Unknown tenants, and connections with no tenant at all,
//! run unrestricted.

use masort_core::sync::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::Arc;

/// Limits applied to one tenant. A zero field means "unlimited" (or, for
/// `priority`, "no override").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantQuota {
    /// Most sorts this tenant may run (and queue) at once; 0 = unlimited.
    pub max_live: usize,
    /// Most pages one of this tenant's sorts may request; 0 = unlimited.
    pub max_pages: usize,
    /// Fixed scheduling priority for this tenant's jobs, overriding whatever
    /// the client asked for; 0 = honour the client's priority.
    pub priority: u32,
}

impl TenantQuota {
    /// Parse the CLI form `name=max_live:max_pages[:priority]`.
    ///
    /// ```
    /// let (name, quota) = masort_server::TenantQuota::parse("acme=4:16:2").unwrap();
    /// assert_eq!(name, "acme");
    /// assert_eq!(quota.max_live, 4);
    /// assert_eq!(quota.max_pages, 16);
    /// assert_eq!(quota.priority, 2);
    /// ```
    pub fn parse(s: &str) -> Result<(String, TenantQuota), String> {
        let (name, rest) = s
            .split_once('=')
            .ok_or_else(|| format!("tenant quota `{s}` is missing `=`"))?;
        if name.is_empty() {
            return Err(format!("tenant quota `{s}` has an empty tenant name"));
        }
        let mut parts = rest.split(':');
        let field = |part: Option<&str>, what: &str| -> Result<usize, String> {
            let raw = part.ok_or_else(|| format!("tenant quota `{s}` is missing {what}"))?;
            raw.parse::<usize>()
                .map_err(|_| format!("tenant quota `{s}`: {what} `{raw}` is not a number"))
        };
        let max_live = field(parts.next(), "max_live")?;
        let max_pages = field(parts.next(), "max_pages")?;
        let priority = match parts.next() {
            Some(raw) => raw
                .parse::<u32>()
                .map_err(|_| format!("tenant quota `{s}`: priority `{raw}` is not a number"))?,
            None => 0,
        };
        if parts.next().is_some() {
            return Err(format!("tenant quota `{s}` has too many `:` fields"));
        }
        Ok((
            name.to_string(),
            TenantQuota {
                max_live,
                max_pages,
                priority,
            },
        ))
    }
}

struct RegistryState {
    quotas: HashMap<String, TenantQuota>,
    live: HashMap<String, usize>,
}

/// Tracks configured quotas and how many sorts each tenant currently has in
/// flight. Cheap to clone — all clones share one state.
#[derive(Clone)]
pub(crate) struct TenantRegistry {
    state: Arc<Mutex<RegistryState>>,
}

impl TenantRegistry {
    /// A registry with the given quota table. Tenants absent from the table
    /// are unrestricted.
    pub fn new(quotas: HashMap<String, TenantQuota>) -> Self {
        TenantRegistry {
            state: Arc::new(Mutex::new(RegistryState {
                quotas,
                live: HashMap::new(),
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, RegistryState> {
        self.state.lock()
    }

    /// The quota configured for `tenant`, if any.
    pub fn quota(&self, tenant: &str) -> Option<TenantQuota> {
        self.lock().quotas.get(tenant).copied()
    }

    /// Claim a live-job slot for `tenant`. On success the returned guard
    /// holds the slot until dropped; on failure returns
    /// `Err((live, max_live))` for the quota error frame.
    pub fn claim(&self, tenant: &str) -> Result<LiveGuard, (usize, usize)> {
        let mut st = self.lock();
        let max_live = st.quotas.get(tenant).map(|q| q.max_live).unwrap_or(0);
        let live = st.live.entry(tenant.to_string()).or_insert(0);
        if max_live != 0 && *live >= max_live {
            return Err((*live, max_live));
        }
        *live += 1;
        Ok(LiveGuard {
            registry: self.clone(),
            tenant: tenant.to_string(),
        })
    }
}

/// RAII handle on one tenant live-job slot; dropping it releases the slot.
pub(crate) struct LiveGuard {
    registry: TenantRegistry,
    tenant: String,
}

impl std::fmt::Debug for LiveGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveGuard")
            .field("tenant", &self.tenant)
            .finish()
    }
}

impl Drop for LiveGuard {
    fn drop(&mut self) {
        let mut st = self.registry.lock();
        if let Some(live) = st.live.get_mut(&self.tenant) {
            *live = live.saturating_sub(1);
            if *live == 0 {
                st.live.remove(&self.tenant);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_forms() {
        let (name, q) = TenantQuota::parse("acme=4:16").unwrap();
        assert_eq!(name, "acme");
        assert_eq!(
            q,
            TenantQuota {
                max_live: 4,
                max_pages: 16,
                priority: 0
            }
        );
        let (_, q) = TenantQuota::parse("acme=0:0:7").unwrap();
        assert_eq!(q.priority, 7);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in ["acme", "=1:2", "acme=1", "acme=x:2", "acme=1:2:3:4"] {
            assert!(TenantQuota::parse(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn claims_enforce_max_live_and_guards_release_slots() {
        let mut quotas = HashMap::new();
        quotas.insert(
            "acme".to_string(),
            TenantQuota {
                max_live: 2,
                max_pages: 0,
                priority: 0,
            },
        );
        let reg = TenantRegistry::new(quotas);
        let a = reg.claim("acme").unwrap();
        let b = reg.claim("acme").unwrap();
        assert_eq!(reg.claim("acme").unwrap_err(), (2, 2));
        // Unknown tenants are unrestricted.
        let _c = reg.claim("other").unwrap();
        let _d = reg.claim("other").unwrap();
        drop(a);
        let _e = reg.claim("acme").unwrap();
        assert_eq!(reg.lock().live["acme"], 2);
        drop(b);
        drop(_e);
        assert!(!reg.lock().live.contains_key("acme"));
    }
}
