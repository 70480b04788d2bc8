//! Error type of the serving layer.

use crate::tenant::TenantId;
use regcube_stream::StreamError;
use std::fmt;

/// Errors produced by the multi-tenant server.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The tenant's bounded ingest queue is full: the record was **not**
    /// enqueued (and nothing already accepted was touched) — the typed
    /// backpressure signal. Callers decide whether to retry after a
    /// [`pump`](crate::server::Server::pump), shed the record, or slow
    /// the producer; the server never drops silently.
    Overloaded {
        /// The saturated tenant.
        tenant: TenantId,
        /// Its configured queue capacity in records.
        capacity: usize,
    },
    /// Admission control rejected a new tenant: the server already
    /// hosts its configured maximum.
    AdmissionDenied {
        /// The configured tenant cap.
        max_tenants: usize,
    },
    /// A tenant with this id already exists.
    DuplicateTenant {
        /// The contested id.
        tenant: TenantId,
    },
    /// No tenant with this id exists.
    UnknownTenant {
        /// The unknown id.
        tenant: TenantId,
    },
    /// A pump of this tenant panicked (a panicking
    /// [`AlarmSink`](regcube_core::alarm::AlarmSink), say) and left its
    /// engine in an unknown state. The tenant is failed for good: every
    /// later write, checkpoint or statistics call reports this again,
    /// its last published snapshot stays readable, and
    /// [`drop_tenant`](crate::server::Server::drop_tenant) removes it.
    /// Other tenants are unaffected.
    TenantFailed {
        /// The failed tenant.
        tenant: TenantId,
    },
    /// A failure from the tenant's underlying stream engine.
    Stream(StreamError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { tenant, capacity } => write!(
                f,
                "tenant {tenant} overloaded: ingest queue full ({capacity} records); \
                 pump the server or slow the producer and retry"
            ),
            ServeError::AdmissionDenied { max_tenants } => {
                write!(
                    f,
                    "admission denied: server already hosts {max_tenants} tenants"
                )
            }
            ServeError::DuplicateTenant { tenant } => {
                write!(f, "tenant {tenant} already exists")
            }
            ServeError::UnknownTenant { tenant } => write!(f, "unknown tenant {tenant}"),
            ServeError::TenantFailed { tenant } => write!(
                f,
                "tenant {tenant} failed: a pump panicked and its engine is unusable; \
                 drop the tenant and re-admit it"
            ),
            ServeError::Stream(e) => write!(f, "stream engine error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Stream(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StreamError> for ServeError {
    fn from(e: StreamError) -> Self {
        ServeError::Stream(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn displays_and_sources() {
        let cases: Vec<ServeError> = vec![
            ServeError::Overloaded {
                tenant: TenantId::from("acme"),
                capacity: 8,
            },
            ServeError::AdmissionDenied { max_tenants: 2 },
            ServeError::DuplicateTenant {
                tenant: TenantId::from("acme"),
            },
            ServeError::UnknownTenant {
                tenant: TenantId::from("ghost"),
            },
            StreamError::BadConfig { detail: "x".into() }.into(),
            ServeError::TenantFailed {
                tenant: TenantId::from("acme"),
            },
        ];
        for c in &cases {
            assert!(!c.to_string().is_empty());
        }
        assert!(cases[4].source().is_some());
        assert!(cases[0].source().is_none());
    }
}
