//! Byte identity of the wire renderers.
//!
//! The text writer appends decimal ids with its own digit loop and the
//! frame writer patches its length prefix in place; both must produce
//! exactly the bytes of the straightforward `format!`/`join` text renderer
//! and the build-then-copy frame renderer they replaced. Those originals
//! are kept below as references, and random id-list responses (id 0,
//! `u32::MAX` users, `u64::MAX` objects and empty lists included) are
//! rendered both ways. An `EVENT` written from a borrowed delta run must
//! equal the typed [`Response::Event`] in both wire modes.

use pm_core::{Arrival, FrontierDelta};
use pm_engine::response::{write_event, write_frame, write_message, write_text};
use pm_engine::{render_frame, render_text, Response, WireMode};
use pm_model::{ObjectId, UserId};
use proptest::prelude::*;

fn format_users(users: &[UserId]) -> String {
    users
        .iter()
        .map(|u| u.raw().to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn format_objects(objects: &[ObjectId]) -> String {
    objects
        .iter()
        .map(|o| o.raw().to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// The `format!` text renderer, for the variants that carry id lists.
fn reference_text(response: &Response) -> String {
    match response {
        Response::Ingested(arrivals) => {
            let body = arrivals
                .iter()
                .map(|a| format!("{}:{}", a.object.raw(), format_users(&a.target_users)))
                .collect::<Vec<_>>()
                .join(";");
            format!("OK INGESTED {} {body}", arrivals.len())
        }
        Response::Query { object, users } => {
            format!("OK QUERY {} {}", object.raw(), format_users(users))
        }
        Response::Frontier { user, objects } => {
            format!("OK FRONTIER {} {}", user.raw(), format_objects(objects))
        }
        Response::Subscribed { user, snapshot } => {
            format!("OK SUBSCRIBED {} {}", user.raw(), format_objects(snapshot))
        }
        Response::Event { user, deltas } => {
            let body = deltas
                .iter()
                .map(|d| format!("{}{}", if d.entered { '+' } else { '-' }, d.object.raw()))
                .collect::<Vec<_>>()
                .join(",");
            format!("EVENT {} {body}", user.raw())
        }
        other => panic!("no reference rendering for {other:?}"),
    }
}

/// The build-then-copy frame renderer, for the same variants.
fn reference_frame(response: &Response) -> Vec<u8> {
    let users = |body: &mut Vec<u8>, users: &[UserId]| {
        body.extend_from_slice(&(users.len() as u32).to_be_bytes());
        for user in users {
            body.extend_from_slice(&user.raw().to_be_bytes());
        }
    };
    let objects = |body: &mut Vec<u8>, objects: &[ObjectId]| {
        body.extend_from_slice(&(objects.len() as u32).to_be_bytes());
        for object in objects {
            body.extend_from_slice(&object.raw().to_be_bytes());
        }
    };
    let mut body: Vec<u8> = vec![0];
    body[0] = match response {
        Response::Ingested(arrivals) => {
            body.extend_from_slice(&(arrivals.len() as u32).to_be_bytes());
            for arrival in arrivals {
                body.extend_from_slice(&arrival.object.raw().to_be_bytes());
                users(&mut body, &arrival.target_users);
            }
            1
        }
        Response::Query { object, users: ids } => {
            body.extend_from_slice(&object.raw().to_be_bytes());
            users(&mut body, ids);
            3
        }
        Response::Frontier { user, objects: ids } => {
            body.extend_from_slice(&user.raw().to_be_bytes());
            objects(&mut body, ids);
            4
        }
        Response::Subscribed { user, snapshot } => {
            body.extend_from_slice(&user.raw().to_be_bytes());
            objects(&mut body, snapshot);
            12
        }
        Response::Event { user, deltas } => {
            body.extend_from_slice(&user.raw().to_be_bytes());
            body.extend_from_slice(&(deltas.len() as u32).to_be_bytes());
            for delta in deltas {
                body.push(u8::from(delta.entered));
                body.extend_from_slice(&delta.object.raw().to_be_bytes());
            }
            15
        }
        other => panic!("no reference frame for {other:?}"),
    };
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_be_bytes());
    frame.extend_from_slice(&body);
    frame
}

/// Ids weighted toward the edges: 0, the type's maximum, small values
/// (shared digit counts) and anything at all.
fn edge_id(max: u64) -> impl Strategy<Value = u64> {
    (0u8..4, 0..=max).prop_map(move |(kind, any)| match kind {
        0 => 0,
        1 => max,
        2 => any % 1_000,
        _ => any,
    })
}

fn user_id() -> impl Strategy<Value = UserId> {
    edge_id(u64::from(u32::MAX)).prop_map(|id| UserId::new(id as u32))
}

fn object_id() -> impl Strategy<Value = ObjectId> {
    edge_id(u64::MAX).prop_map(ObjectId::new)
}

/// One random id-list response of each rendered shape, chosen by `kind`.
fn response() -> impl Strategy<Value = Response> {
    (
        0u8..5,
        (user_id(), object_id()),
        proptest::collection::vec(
            (object_id(), proptest::collection::vec(user_id(), 0..6)),
            0..5,
        ),
        proptest::collection::vec((object_id(), 0u8..2), 0..6),
    )
        .prop_map(|(kind, (user, object), arrivals, objects)| {
            let ids: Vec<ObjectId> = objects.iter().map(|&(o, _)| o).collect();
            match kind {
                0 => Response::Ingested(
                    arrivals
                        .into_iter()
                        .map(|(object, target_users)| Arrival {
                            object,
                            target_users,
                            deltas: Vec::new(),
                        })
                        .collect(),
                ),
                1 => Response::Event {
                    user,
                    deltas: objects
                        .into_iter()
                        .map(|(o, entered)| {
                            if entered == 1 {
                                FrontierDelta::enter(user, o)
                            } else {
                                FrontierDelta::leave(user, o)
                            }
                        })
                        .collect(),
                },
                2 => Response::Query {
                    object,
                    users: arrivals.into_iter().flat_map(|(_, users)| users).collect(),
                },
                3 => Response::Frontier { user, objects: ids },
                _ => Response::Subscribed {
                    user,
                    snapshot: ids,
                },
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn writers_match_the_reference_renderers(response in response()) {
        let text = reference_text(&response);
        let frame = reference_frame(&response);
        prop_assert_eq!(render_text(&response), text.clone());
        prop_assert_eq!(render_frame(&response), frame.clone());

        // The writers append after whatever the buffer already holds.
        let mut out = b"prefix".to_vec();
        write_text(&response, &mut out);
        prop_assert_eq!(&out[6..], text.as_bytes());
        let mut out = b"prefix".to_vec();
        write_frame(&response, &mut out);
        prop_assert_eq!(&out[6..], &frame[..]);

        let mut line = Vec::new();
        write_message(&response, WireMode::Text, &mut line);
        prop_assert_eq!(line, format!("{text}\n").into_bytes());

        if let Response::Event { user, deltas } = &response {
            for mode in [WireMode::Text, WireMode::Frame] {
                let (mut borrowed, mut typed) = (Vec::new(), Vec::new());
                write_event(*user, deltas, mode, &mut borrowed);
                write_message(&response, mode, &mut typed);
                prop_assert_eq!(borrowed, typed);
            }
        }
    }
}

#[test]
fn edge_values_render_identically() {
    let user = UserId::new(u32::MAX);
    let cases = vec![
        Response::Ingested(Vec::new()),
        Response::Ingested(vec![
            Arrival {
                object: ObjectId::new(0),
                target_users: Vec::new(),
                deltas: Vec::new(),
            },
            Arrival {
                object: ObjectId::new(u64::MAX),
                target_users: vec![UserId::new(0), user],
                deltas: Vec::new(),
            },
        ]),
        Response::Event {
            user,
            deltas: Vec::new(),
        },
        Response::Event {
            user: UserId::new(0),
            deltas: vec![
                FrontierDelta::enter(UserId::new(0), ObjectId::new(0)),
                FrontierDelta::leave(UserId::new(0), ObjectId::new(u64::MAX)),
            ],
        },
        Response::Query {
            object: ObjectId::new(u64::MAX),
            users: Vec::new(),
        },
        Response::Frontier {
            user,
            objects: vec![ObjectId::new(u64::MAX)],
        },
        Response::Subscribed {
            user: UserId::new(0),
            snapshot: Vec::new(),
        },
    ];
    for response in &cases {
        assert_eq!(render_text(response), reference_text(response));
        assert_eq!(render_frame(response), reference_frame(response));
    }
    assert_eq!(
        render_text(&cases[1]),
        "OK INGESTED 2 0:;18446744073709551615:0,4294967295"
    );
}
