//! The controller/worker message vocabulary (Table 1 of the paper).
//!
//! Meterstick "follows a Controller/Worker pattern, with the Control Server
//! as the controller, and the Control Clients as the workers" (Section 3.2),
//! because the real benchmark drives separate machines. In this
//! reproduction an iteration is a function call
//! ([`execute_iteration_observed`](crate::experiment::execute_iteration_observed)):
//! no controller runs and nothing sends these messages. What the module
//! keeps is Table 1 itself — the messages, their wire spelling, who they
//! are addressed to and the order an iteration sends them in — and
//! [`ControllerMessage::parse`], a parse boundary for text from outside the
//! program.

use serde::{Deserialize, Serialize};

/// A controller message (Table 1). `Dest` in the table maps to which worker
/// kind the controller sends it to: player-emulation workers (`Y`), the
/// server node (`M`), or the controller itself (`C`, for replies).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ControllerMessage {
    /// `set_server:<name>` — specifies the system under test.
    SetServer(String),
    /// `set_jmx:<url>` — specifies the JMX URL for metric externalization.
    SetJmx(String),
    /// `iter:<n>` — specifies what iteration to start at.
    Iter(u32),
    /// `initialize` — starts the selected server.
    Initialize,
    /// `log_start` — starts metric logging tools.
    LogStart,
    /// `log_stop` — stops metric logging tools.
    LogStop,
    /// `stop_server` — stops the running server.
    StopServer,
    /// `connect` — starts player emulation.
    Connect,
    /// `convert` — converts metric bin files to CSV.
    Convert,
    /// `keep_alive` — no-op that keeps the TCP connection open.
    KeepAlive,
    /// `exit` — stops the controller client.
    Exit,
}

/// A worker reply.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkerReply {
    /// `ok` — acknowledges the previous message.
    Ok,
    /// `err:<error>` — the previous message caused an error.
    Err(String),
}

/// The role a worker plays in the benchmark (the `Dest` column of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkerRole {
    /// A player-emulation worker (`Y`).
    PlayerEmulation,
    /// The server node (`M`).
    Server,
}

impl ControllerMessage {
    /// Returns `true` if the message is addressed to workers of `role`,
    /// following the `Dest` column of Table 1.
    #[must_use]
    pub fn addressed_to(&self, role: WorkerRole) -> bool {
        use ControllerMessage::*;
        match self {
            SetServer(_) | Iter(_) | KeepAlive | Exit => true,
            SetJmx(_) | Initialize | LogStart | LogStop | StopServer => role == WorkerRole::Server,
            Connect | Convert => role == WorkerRole::PlayerEmulation,
        }
    }

    /// The canonical wire spelling of the message, as listed in Table 1.
    #[must_use]
    pub fn wire_format(&self) -> String {
        match self {
            ControllerMessage::SetServer(s) => format!("set_server:{s}"),
            ControllerMessage::SetJmx(url) => format!("set_jmx:{url}"),
            ControllerMessage::Iter(n) => format!("iter:{n}"),
            ControllerMessage::Initialize => "initialize".into(),
            ControllerMessage::LogStart => "log_start".into(),
            ControllerMessage::LogStop => "log_stop".into(),
            ControllerMessage::StopServer => "stop_server".into(),
            ControllerMessage::Connect => "connect".into(),
            ControllerMessage::Convert => "convert".into(),
            ControllerMessage::KeepAlive => "keep_alive".into(),
            ControllerMessage::Exit => "exit".into(),
        }
    }

    /// Parses the canonical wire spelling back into a message — the inverse
    /// of [`ControllerMessage::wire_format`]: for every message `m`,
    /// `parse(&m.wire_format()) == Ok(m)`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseMessageError::UnknownMessage`] for spellings not in
    /// Table 1 and [`ParseMessageError::InvalidIteration`] when an `iter:`
    /// payload is not a `u32`.
    pub fn parse(wire: &str) -> Result<ControllerMessage, ParseMessageError> {
        if let Some((keyword, payload)) = wire.split_once(':') {
            return match keyword {
                "set_server" => Ok(ControllerMessage::SetServer(payload.to_string())),
                "set_jmx" => Ok(ControllerMessage::SetJmx(payload.to_string())),
                "iter" => payload
                    .parse::<u32>()
                    .map(ControllerMessage::Iter)
                    .map_err(|_| ParseMessageError::InvalidIteration(payload.to_string())),
                _ => Err(ParseMessageError::UnknownMessage(wire.to_string())),
            };
        }
        match wire {
            "initialize" => Ok(ControllerMessage::Initialize),
            "log_start" => Ok(ControllerMessage::LogStart),
            "log_stop" => Ok(ControllerMessage::LogStop),
            "stop_server" => Ok(ControllerMessage::StopServer),
            "connect" => Ok(ControllerMessage::Connect),
            "convert" => Ok(ControllerMessage::Convert),
            "keep_alive" => Ok(ControllerMessage::KeepAlive),
            "exit" => Ok(ControllerMessage::Exit),
            _ => Err(ParseMessageError::UnknownMessage(wire.to_string())),
        }
    }

    /// The message sequence the controller sends to run one iteration of one
    /// server, from selection to teardown.
    #[must_use]
    pub fn iteration_sequence(
        server: &str,
        jmx_url: &str,
        iteration: u32,
    ) -> Vec<ControllerMessage> {
        vec![
            ControllerMessage::SetServer(server.to_string()),
            ControllerMessage::SetJmx(jmx_url.to_string()),
            ControllerMessage::Iter(iteration),
            ControllerMessage::Initialize,
            ControllerMessage::LogStart,
            ControllerMessage::Connect,
            ControllerMessage::LogStop,
            ControllerMessage::StopServer,
            ControllerMessage::Convert,
        ]
    }
}

/// Error returned by [`ControllerMessage::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseMessageError {
    /// The wire text matches no message of Table 1.
    UnknownMessage(String),
    /// An `iter:` payload was not a valid iteration number.
    InvalidIteration(String),
}

impl std::fmt::Display for ParseMessageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseMessageError::UnknownMessage(wire) => {
                write!(f, "unknown controller message: {wire:?}")
            }
            ParseMessageError::InvalidIteration(payload) => {
                write!(f, "invalid iteration number: {payload:?}")
            }
        }
    }
}

impl std::error::Error for ParseMessageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_format_matches_table1() {
        assert_eq!(
            ControllerMessage::SetServer("paper".into()).wire_format(),
            "set_server:paper"
        );
        assert_eq!(ControllerMessage::Iter(3).wire_format(), "iter:3");
        assert_eq!(ControllerMessage::KeepAlive.wire_format(), "keep_alive");
    }

    #[test]
    fn parse_is_the_inverse_of_wire_format_for_every_variant() {
        let all = vec![
            ControllerMessage::SetServer("paper".into()),
            ControllerMessage::SetServer(String::new()),
            ControllerMessage::SetServer("with:colons:inside".into()),
            ControllerMessage::SetJmx("jmx://host:25585".into()),
            ControllerMessage::Iter(0),
            ControllerMessage::Iter(u32::MAX),
            ControllerMessage::Initialize,
            ControllerMessage::LogStart,
            ControllerMessage::LogStop,
            ControllerMessage::StopServer,
            ControllerMessage::Connect,
            ControllerMessage::Convert,
            ControllerMessage::KeepAlive,
            ControllerMessage::Exit,
        ];
        for message in all {
            assert_eq!(
                ControllerMessage::parse(&message.wire_format()),
                Ok(message.clone()),
                "round-trip failed for {message:?}"
            );
        }
    }

    #[test]
    fn parse_rejects_malformed_wire_text() {
        assert_eq!(
            ControllerMessage::parse("self_destruct"),
            Err(ParseMessageError::UnknownMessage("self_destruct".into()))
        );
        assert_eq!(
            ControllerMessage::parse("bogus:payload"),
            Err(ParseMessageError::UnknownMessage("bogus:payload".into()))
        );
        assert_eq!(
            ControllerMessage::parse("iter:not-a-number"),
            Err(ParseMessageError::InvalidIteration("not-a-number".into()))
        );
        assert_eq!(
            ControllerMessage::parse(""),
            Err(ParseMessageError::UnknownMessage(String::new()))
        );
        assert!(ControllerMessage::parse("iter:not-a-number")
            .unwrap_err()
            .to_string()
            .contains("iteration"));
    }

    #[test]
    fn addressing_follows_the_dest_column() {
        use ControllerMessage::*;
        assert!(Connect.addressed_to(WorkerRole::PlayerEmulation));
        assert!(!Connect.addressed_to(WorkerRole::Server));
        assert!(Initialize.addressed_to(WorkerRole::Server));
        assert!(!Initialize.addressed_to(WorkerRole::PlayerEmulation));
        assert!(SetServer("v".into()).addressed_to(WorkerRole::Server));
        assert!(SetServer("v".into()).addressed_to(WorkerRole::PlayerEmulation));
        assert!(Exit.addressed_to(WorkerRole::Server));
    }

    #[test]
    fn iteration_sequence_is_complete_and_ordered() {
        let seq = ControllerMessage::iteration_sequence("minecraft", "jmx://host:25585", 1);
        assert_eq!(seq.len(), 9);
        assert_eq!(seq.first().unwrap().wire_format(), "set_server:minecraft");
        assert_eq!(seq.last().unwrap(), &ControllerMessage::Convert);
        // Logging starts before players connect and stops before the server
        // is torn down.
        let pos = |m: &ControllerMessage| seq.iter().position(|x| x == m).unwrap();
        assert!(pos(&ControllerMessage::LogStart) < pos(&ControllerMessage::Connect));
        assert!(pos(&ControllerMessage::LogStop) < pos(&ControllerMessage::StopServer));
    }
}
