//! Service access tokens for vehicle-to-cloud access (paper §IV-B.2, after
//! Park et al. \[29\]).
//!
//! A cloud gateway (RSU or broker vehicle) issues a pseudonymous token after
//! authenticating a vehicle once; subsequent service calls present the token
//! instead of re-running full authentication — amortizing the expensive
//! handshake across a session, which is how v-clouds meet the paper's
//! stringent time constraints for repeated access.

use crate::identity::AuthError;
use crate::pseudonym::PseudonymId;
use vc_crypto::schnorr::{Signature, SigningKey, VerifyingKey};
use vc_sim::time::{SimDuration, SimTime};

/// Identifier of a cloud service class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServiceId(pub u32);

/// A signed capability: "this pseudonym may use this service until expiry".
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceToken {
    /// The pseudonym the token was issued to.
    pub holder: PseudonymId,
    /// The service it grants.
    pub service: ServiceId,
    /// Issue instant.
    pub issued_at: SimTime,
    /// Expiry instant.
    pub expires_at: SimTime,
    /// Gateway signature.
    pub signature: Signature,
}

impl ServiceToken {
    fn signed_bytes(
        holder: PseudonymId,
        service: ServiceId,
        issued: SimTime,
        expires: SimTime,
    ) -> Vec<u8> {
        let mut out = holder.0.to_be_bytes().to_vec();
        out.extend_from_slice(&service.0.to_be_bytes());
        out.extend_from_slice(&issued.as_micros().to_be_bytes());
        out.extend_from_slice(&expires.as_micros().to_be_bytes());
        out
    }
}

/// The token-issuing gateway (an RSU or an elected broker).
#[derive(Debug)]
pub struct TokenGateway {
    key: SigningKey,
    token_lifetime: SimDuration,
}

impl TokenGateway {
    /// Creates a gateway whose tokens live for `token_lifetime`.
    pub fn new(seed: &[u8], token_lifetime: SimDuration) -> Self {
        TokenGateway { key: SigningKey::from_seed(seed), token_lifetime }
    }

    /// The key vehicles use to verify tokens from this gateway.
    pub fn public_key(&self) -> VerifyingKey {
        self.key.verifying_key()
    }

    /// Issues a token to an (already authenticated) pseudonym.
    pub fn issue(&self, holder: PseudonymId, service: ServiceId, now: SimTime) -> ServiceToken {
        let expires_at = now + self.token_lifetime;
        let body = ServiceToken::signed_bytes(holder, service, now, expires_at);
        ServiceToken {
            holder,
            service,
            issued_at: now,
            expires_at,
            signature: self.key.sign(&body),
        }
    }
}

/// Validates a presented token for `service` at `now`.
///
/// # Errors
///
/// [`AuthError::Expired`] past expiry, [`AuthError::BadCredential`] on a bad
/// signature or wrong service.
pub fn verify_token(
    token: &ServiceToken,
    gateway_key: &VerifyingKey,
    service: ServiceId,
    now: SimTime,
) -> Result<(), AuthError> {
    if token.service != service {
        return Err(AuthError::BadCredential);
    }
    if now > token.expires_at || now < token.issued_at {
        return Err(AuthError::Expired);
    }
    let body =
        ServiceToken::signed_bytes(token.holder, token.service, token.issued_at, token.expires_at);
    if !gateway_key.verify(&body, &token.signature) {
        return Err(AuthError::BadCredential);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gateway() -> TokenGateway {
        TokenGateway::new(b"rsu-7", SimDuration::from_secs(300))
    }

    #[test]
    fn issue_and_verify() {
        let gw = gateway();
        let now = SimTime::from_secs(100);
        let token = gw.issue(PseudonymId(5), ServiceId(1), now);
        assert_eq!(verify_token(&token, &gw.public_key(), ServiceId(1), now), Ok(()));
    }

    #[test]
    fn wrong_service_rejected() {
        let gw = gateway();
        let now = SimTime::from_secs(100);
        let token = gw.issue(PseudonymId(5), ServiceId(1), now);
        assert_eq!(
            verify_token(&token, &gw.public_key(), ServiceId(2), now),
            Err(AuthError::BadCredential)
        );
    }

    #[test]
    fn expired_token_rejected() {
        let gw = gateway();
        let token = gw.issue(PseudonymId(5), ServiceId(1), SimTime::from_secs(100));
        let late = SimTime::from_secs(500);
        assert_eq!(
            verify_token(&token, &gw.public_key(), ServiceId(1), late),
            Err(AuthError::Expired)
        );
        let early = SimTime::from_secs(50);
        assert_eq!(
            verify_token(&token, &gw.public_key(), ServiceId(1), early),
            Err(AuthError::Expired)
        );
    }

    #[test]
    fn forged_token_rejected() {
        let gw = gateway();
        let now = SimTime::from_secs(100);
        let mut token = gw.issue(PseudonymId(5), ServiceId(1), now);
        token.expires_at = SimTime::from_secs(9_999);
        assert_eq!(
            verify_token(&token, &gw.public_key(), ServiceId(1), now),
            Err(AuthError::BadCredential)
        );
    }

    #[test]
    fn token_from_other_gateway_rejected() {
        let gw1 = gateway();
        let gw2 = TokenGateway::new(b"rogue", SimDuration::from_secs(300));
        let now = SimTime::from_secs(100);
        let token = gw1.issue(PseudonymId(5), ServiceId(1), now);
        assert_eq!(
            verify_token(&token, &gw2.public_key(), ServiceId(1), now),
            Err(AuthError::BadCredential)
        );
    }
}
