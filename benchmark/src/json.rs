//! JSON in and out through the vendored `serde_json` stand-in.
//!
//! The stand-in parses into and renders from a `serde::Value` tree but
//! gives that tree no `Serialize`/`Deserialize` impl of its own;
//! [`Json`] is the one-line wrapper that does, plus the accessors and
//! builders the result files need.

use serde::{Deserialize, Serialize, Value};

#[derive(Debug, Clone, PartialEq)]
pub struct Json(pub Value);

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Json(v.clone()))
    }
}

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    pub fn render(&self) -> String {
        serde_json::to_string(self).expect("a value tree always renders")
    }

    pub fn object<K: Into<String>>(pairs: Vec<(K, Json)>) -> Json {
        Json(Value::Map(pairs.into_iter().map(|(k, v)| (k.into(), v.0)).collect()))
    }

    pub fn list(items: Vec<Json>) -> Json {
        Json(Value::Seq(items.into_iter().map(|j| j.0).collect()))
    }

    pub fn text(s: &str) -> Json {
        Json(Value::Str(s.to_string()))
    }

    pub fn float(x: f64) -> Json {
        Json(Value::Float(x))
    }

    pub fn uint(x: u64) -> Json {
        Json(Value::UInt(x))
    }

    pub fn boolean(b: bool) -> Json {
        Json(Value::Bool(b))
    }

    pub fn get(&self, key: &str) -> Option<Json> {
        self.0.get(key).cloned().map(Json)
    }

    pub fn array(&self) -> Option<Vec<Json>> {
        match &self.0 {
            Value::Seq(items) => Some(items.iter().cloned().map(Json).collect()),
            _ => None,
        }
    }

    /// The members of an object, in file order.
    pub fn members(&self) -> Option<Vec<(String, Json)>> {
        match &self.0 {
            Value::Map(pairs) => {
                Some(pairs.iter().map(|(k, v)| (k.clone(), Json(v.clone()))).collect())
            }
            _ => None,
        }
    }

    pub fn str(&self) -> Option<&str> {
        match &self.0 {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self.0 {
            Value::Int(n) => Some(n as f64),
            Value::UInt(n) => Some(n as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    pub fn bool(&self) -> Option<bool> {
        match self.0 {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        self.0 == Value::Null
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_an_object() {
        let j = Json::object(vec![
            ("name", Json::text("pkt_mpps")),
            ("value", Json::float(20.5125)),
            ("n", Json::uint(150)),
            ("ok", Json::boolean(true)),
            ("xs", Json::list(vec![Json::float(1.5), Json::uint(2)])),
        ]);
        let back = Json::parse(&j.render()).unwrap();
        assert_eq!(back.get("name").unwrap().str(), Some("pkt_mpps"));
        assert_eq!(back.get("value").unwrap().num(), Some(20.5125));
        assert_eq!(back.get("n").unwrap().num(), Some(150.0));
        assert_eq!(back.get("xs").unwrap().array().unwrap().len(), 2);
        assert_eq!(back.members().unwrap()[0].0, "name");
        assert!(Json::parse("{\"a\": }").is_err());
    }
}
