//! The secure v-cloud pipeline of the paper's Fig. 3.
//!
//! Fig. 3 frames secure cloud participation as a question chain the system
//! answers for every interaction:
//!
//! 1. *Does the vehicle have a valid identity?* — pseudonym authentication
//! 2. *What resources can be accessed by the vehicle?* — service tokens
//! 3. *What actions are allowed on the data?* — sticky-policy enforcement
//! 4. *Do I need to verify data trustworthiness?* — validator stack
//!
//! [`SecurePipeline`] wires the four crates into that chain; the quickstart
//! example and integration tests drive it end to end.

use vc_access::credential::{
    prove_possession, AttributeCredential, AttributeIssuer, Attributes, PossessionProof,
};
use vc_access::package::{challenge_bytes, AccessError, DataPackage, TpdEnforcer};
use vc_access::policy::{Action, Context};
use vc_auth::identity::{AuthError, RealIdentity, TrustedAuthority};
use vc_auth::pseudonym::{PseudonymMessage, PseudonymRegistry, PseudonymWallet};
use vc_auth::replay::{ReplayGuard, ReplayVerdict};
use vc_auth::token::{ServiceId, ServiceToken, TokenGateway};
use vc_crypto::schnorr::SigningKey;
use vc_crypto::sha256::sha256;
use vc_sim::node::VehicleId;
use vc_sim::time::{SimDuration, SimTime};
use vc_trust::prelude::{
    classify, ClassifierConfig, Report, ReputationStore, Validator, WeightedVote,
};

/// Everything a registered vehicle holds after provisioning.
pub struct VehicleCredentials {
    /// The pseudonym wallet for message authentication.
    pub wallet: PseudonymWallet,
    /// Attribute credential for privacy-preserving authorization.
    pub attribute_credential: AttributeCredential,
    /// The key the attribute credential is bound to.
    pub attribute_key: SigningKey,
}

/// Errors from the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// Authentication failed.
    Auth(AuthError),
    /// Authorization / enforcement failed.
    Access(AccessError),
    /// Replay detected.
    Replay,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Auth(e) => write!(f, "authentication: {e}"),
            PipelineError::Access(e) => write!(f, "authorization: {e}"),
            PipelineError::Replay => f.write_str("replay detected"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// The assembled secure v-cloud service stack.
pub struct SecurePipeline {
    ta: TrustedAuthority,
    registry: PseudonymRegistry,
    gateway: TokenGateway,
    issuer: AttributeIssuer,
    tpd: TpdEnforcer,
    replay: ReplayGuard,
    reputation: ReputationStore,
    replay_window: SimDuration,
}

impl SecurePipeline {
    /// Builds the stack from seed material.
    pub fn new(seed: &[u8]) -> Self {
        let mut ta_seed = seed.to_vec();
        ta_seed.extend_from_slice(b"-ta");
        let mut gw_seed = seed.to_vec();
        gw_seed.extend_from_slice(b"-gateway");
        let mut is_seed = seed.to_vec();
        is_seed.extend_from_slice(b"-issuer");
        let mut tpd_seed = seed.to_vec();
        tpd_seed.extend_from_slice(b"-tpd");
        SecurePipeline {
            ta: TrustedAuthority::new(&ta_seed),
            registry: PseudonymRegistry::new(),
            gateway: TokenGateway::new(&gw_seed, SimDuration::from_secs(300)),
            issuer: AttributeIssuer::new(&is_seed),
            tpd: TpdEnforcer::new(&tpd_seed),
            replay: ReplayGuard::new(SimDuration::from_secs(5), 4096),
            reputation: ReputationStore::new(),
            replay_window: SimDuration::from_secs(5),
        }
    }

    /// The trusted authority (for registration-time operations).
    pub fn ta(&self) -> &TrustedAuthority {
        &self.ta
    }

    /// The TPD enforcement public share — owners seal packages to this.
    pub fn tpd_share(&self) -> vc_crypto::dh::PublicShare {
        self.tpd.public_share()
    }

    /// Registers and provisions a vehicle: identity registration, a
    /// pseudonym wallet, and an attribute credential.
    ///
    /// # Errors
    ///
    /// Propagates wallet-issuance failures (unknown/revoked identity).
    pub fn provision(
        &mut self,
        vehicle: VehicleId,
        attributes: Attributes,
        now: SimTime,
    ) -> Result<VehicleCredentials, PipelineError> {
        let identity = RealIdentity::for_vehicle(vehicle);
        self.ta.register(identity.clone(), vehicle);
        let mut seed = b"wallet-".to_vec();
        seed.extend_from_slice(identity.0.as_bytes());
        let wallet = self
            .registry
            .issue_wallet(&self.ta, &identity, 16, now, now + SimDuration::from_secs(86_400), &seed)
            .map_err(PipelineError::Auth)?;
        let mut akey_seed = b"attr-".to_vec();
        akey_seed.extend_from_slice(identity.0.as_bytes());
        let attribute_key = SigningKey::from_seed(&akey_seed);
        let attribute_credential = self.issuer.issue(
            attributes,
            attribute_key.verifying_key(),
            now + SimDuration::from_secs(86_400),
        );
        Ok(VehicleCredentials { wallet, attribute_credential, attribute_key })
    }

    /// Fig. 3 question 1+2: authenticates a pseudonym-signed hello and
    /// grants a service token.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Auth`] on any authentication failure;
    /// [`PipelineError::Replay`] on a replayed hello.
    pub fn admit(
        &mut self,
        hello: &PseudonymMessage,
        service: ServiceId,
        now: SimTime,
    ) -> Result<ServiceToken, PipelineError> {
        let _admit = vc_obs::profile::frame("auth.admit");
        vc_auth::pseudonym::verify_with_front(
            hello,
            &self.ta.public_key(),
            self.registry.crl(),
            now,
            self.replay_window,
        )
        .map_err(PipelineError::Auth)?;
        let digest = sha256(&[&hello.payload[..], &hello.signature.to_bytes()[..]].concat());
        match self.replay.check(digest, hello.sent_at, now) {
            ReplayVerdict::Fresh => {}
            _ => return Err(PipelineError::Replay),
        }
        Ok(self.gateway.issue(hello.cert.id, service, now))
    }

    /// Fig. 3 question 3: authorizes an action on a data package through the
    /// TPD, given a valid token and an attribute proof.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Auth`] for an invalid token, [`PipelineError::Access`]
    /// when enforcement fails or denies.
    #[allow(clippy::too_many_arguments)]
    pub fn authorize(
        &mut self,
        package: &mut DataPackage,
        action: Action,
        token: &ServiceToken,
        service: ServiceId,
        proof: &PossessionProof,
        ambient: &Context,
    ) -> Result<Vec<u8>, PipelineError> {
        let _authorize = vc_obs::profile::frame("access.authorize");
        vc_auth::token::verify_token(token, &self.gateway.public_key(), service, ambient.now)
            .map_err(PipelineError::Auth)?;
        self.tpd
            .request_access(
                package,
                action,
                proof,
                &self.issuer.public_key(),
                ambient,
                token.holder,
            )
            .map_err(PipelineError::Access)
    }

    /// Fig. 3 question 4: validates reported event data before acting on it.
    /// Returns per-event (cluster centroid kind, trust score, decision).
    pub fn validate_reports(&mut self, reports: &[Report]) -> Vec<(usize, f64, bool)> {
        let _validate = vc_obs::profile::frame("trust.validate");
        let clusters = classify(reports, &ClassifierConfig::default());
        clusters
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let score = WeightedVote.score(c, &self.reputation);
                (i, score, score >= 0.5)
            })
            .collect()
    }

    /// Feeds a confirmed ground-truth outcome back into reputation.
    pub fn record_outcome(&mut self, reporter: u64, was_correct: bool) {
        self.reputation.record(reporter, was_correct);
    }

    /// Helper: builds the access proof for a package at a time.
    pub fn make_proof(
        credentials: &VehicleCredentials,
        package_id: u64,
        now: SimTime,
    ) -> PossessionProof {
        let _proof = vc_obs::profile::frame("access.proof");
        prove_possession(
            &credentials.attribute_credential,
            &credentials.attribute_key,
            &challenge_bytes(package_id, now),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_access::policy::{Expr, Policy, Role};
    use vc_sim::geom::Point;
    use vc_sim::node::SaeLevel;

    fn attrs() -> Attributes {
        Attributes {
            role: Role::Storage,
            automation: SaeLevel::L4,
            storage_provider: true,
            compute_provider: true,
        }
    }

    #[test]
    fn full_chain_identity_to_data() {
        let mut pipeline = SecurePipeline::new(b"test-net");
        let now = SimTime::from_secs(10);
        let creds = pipeline.provision(VehicleId(1), attrs(), now).unwrap();

        // Q1/Q2: admission.
        let hello = creds.wallet.sign(b"hello cloud", now);
        let token = pipeline.admit(&hello, ServiceId(1), now).unwrap();

        // Owner publishes a package readable by Storage nodes.
        let owner = SigningKey::from_seed(b"owner");
        let policy = Policy::new().allow(Action::Read, Expr::HasRole(Role::Storage));
        let mut package =
            DataPackage::seal_new(42, b"map tiles", policy, &owner, &pipeline.tpd_share(), 7);

        // Q3: authorization.
        let ctx = Context::member_at(Point::new(0.0, 0.0), now);
        let proof = SecurePipeline::make_proof(&creds, 42, now);
        let data = pipeline
            .authorize(&mut package, Action::Read, &token, ServiceId(1), &proof, &ctx)
            .unwrap();
        assert_eq!(data, b"map tiles");
        assert_eq!(package.audit.len(), 1);
    }

    #[test]
    fn replayed_hello_rejected() {
        let mut pipeline = SecurePipeline::new(b"net");
        let now = SimTime::from_secs(10);
        let creds = pipeline.provision(VehicleId(2), attrs(), now).unwrap();
        let hello = creds.wallet.sign(b"hi", now);
        pipeline.admit(&hello, ServiceId(1), now).unwrap();
        assert_eq!(pipeline.admit(&hello, ServiceId(1), now), Err(PipelineError::Replay));
    }

    #[test]
    fn unprovisioned_vehicle_rejected() {
        let mut pipeline = SecurePipeline::new(b"net");
        let other = SecurePipeline::new(b"other-net");
        let now = SimTime::from_secs(10);
        // Credentials from a different trust domain.
        let mut foreign = other;
        let creds = foreign.provision(VehicleId(3), attrs(), now).unwrap();
        let hello = creds.wallet.sign(b"hi", now);
        match pipeline.admit(&hello, ServiceId(1), now) {
            Err(PipelineError::Auth(_)) => {}
            other => panic!("expected auth failure, got {other:?}"),
        }
    }

    #[test]
    fn wrong_service_token_rejected() {
        let mut pipeline = SecurePipeline::new(b"net");
        let now = SimTime::from_secs(10);
        let creds = pipeline.provision(VehicleId(4), attrs(), now).unwrap();
        let hello = creds.wallet.sign(b"hi", now);
        let token = pipeline.admit(&hello, ServiceId(1), now).unwrap();
        let owner = SigningKey::from_seed(b"owner");
        let policy = Policy::new().allow(Action::Read, Expr::True);
        let mut package = DataPackage::seal_new(1, b"x", policy, &owner, &pipeline.tpd_share(), 1);
        let ctx = Context::member_at(Point::new(0.0, 0.0), now);
        let proof = SecurePipeline::make_proof(&creds, 1, now);
        let res =
            pipeline.authorize(&mut package, Action::Read, &token, ServiceId(2), &proof, &ctx);
        assert!(matches!(res, Err(PipelineError::Auth(_))));
    }

    #[test]
    fn trust_validation_flags_minority_truth() {
        let mut pipeline = SecurePipeline::new(b"net");
        // Teach the pipeline who is reliable.
        for _ in 0..10 {
            pipeline.record_outcome(1, true);
            pipeline.record_outcome(2, false);
            pipeline.record_outcome(3, false);
        }
        let mk = |reporter: u64, claim: bool| Report {
            reporter,
            kind: vc_trust::report::EventKind::Accident,
            location: Point::new(0.0, 0.0),
            observed_at: SimTime::from_secs(1),
            claim,
            reporter_pos: Point::new(20.0, 0.0),
            reporter_speed: 10.0,
            path: vec![VehicleId(reporter as u32)],
        };
        let verdicts = pipeline.validate_reports(&[mk(1, true), mk(2, false), mk(3, false)]);
        assert_eq!(verdicts.len(), 1);
        let (_, score, decision) = verdicts[0];
        assert!(decision, "weighted vote should trust the reliable reporter (score {score})");
    }
}
