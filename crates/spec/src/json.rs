//! JSON interchange for [`SystemSpec`], hand-rolled on
//! [`rascad_obs::json`].
//!
//! The wire shape matches what `#[derive(serde::Serialize)]` produces
//! for these types (unit newtypes as bare numbers, enum unit variants
//! as strings, `Option` as the value or `null`), so serde-based tools
//! can read and write the same documents.
//! Unknown object keys are ignored; missing optional fields read as
//! `None`.

use rascad_obs::json::Value;

use crate::block::{Block, BlockParams, RedundancyParams, Scenario};
use crate::diagram::{Diagram, SystemSpec};
use crate::params::GlobalParams;
use crate::units::{Fit, Hours, Minutes};
use crate::SpecError;

fn err(message: impl Into<String>) -> SpecError {
    SpecError::Json { message: message.into() }
}

pub(crate) fn spec_to_value(spec: &SystemSpec) -> Value {
    Value::Obj(vec![
        ("root".into(), diagram_to_value(&spec.root)),
        ("globals".into(), globals_to_value(&spec.globals)),
    ])
}

pub(crate) fn spec_from_value(v: &Value) -> Result<SystemSpec, SpecError> {
    Ok(SystemSpec {
        root: diagram_from_value(get(v, "root", "spec")?)?,
        globals: globals_from_value(get(v, "globals", "spec")?)?,
    })
}

fn diagram_to_value(d: &Diagram) -> Value {
    Value::Obj(vec![
        ("name".into(), Value::from(d.name.as_str())),
        ("blocks".into(), Value::Arr(d.blocks.iter().map(block_to_value).collect())),
    ])
}

fn diagram_from_value(v: &Value) -> Result<Diagram, SpecError> {
    let blocks = get(v, "blocks", "diagram")?
        .as_array()
        .ok_or_else(|| err("diagram `blocks` must be an array"))?
        .iter()
        .map(block_from_value)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Diagram { name: str_field(v, "name", "diagram")?, blocks })
}

fn block_to_value(b: &Block) -> Value {
    Value::Obj(vec![
        ("params".into(), params_to_value(&b.params)),
        ("subdiagram".into(), b.subdiagram.as_ref().map_or(Value::Null, diagram_to_value)),
    ])
}

fn block_from_value(v: &Value) -> Result<Block, SpecError> {
    let subdiagram = match v.get("subdiagram") {
        None | Some(Value::Null) => None,
        Some(sub) => Some(diagram_from_value(sub)?),
    };
    Ok(Block { params: params_from_value(get(v, "params", "block")?)?, subdiagram })
}

fn params_to_value(p: &BlockParams) -> Value {
    Value::Obj(vec![
        ("name".into(), Value::from(p.name.as_str())),
        ("part_number".into(), opt_str_to_value(&p.part_number)),
        ("description".into(), opt_str_to_value(&p.description)),
        ("quantity".into(), Value::from(p.quantity)),
        ("min_quantity".into(), Value::from(p.min_quantity)),
        ("mtbf".into(), Value::Num(p.mtbf.0)),
        ("transient_fit".into(), Value::Num(p.transient_fit.0)),
        ("mttr_diagnosis".into(), Value::Num(p.mttr_diagnosis.0)),
        ("mttr_corrective".into(), Value::Num(p.mttr_corrective.0)),
        ("mttr_verification".into(), Value::Num(p.mttr_verification.0)),
        ("service_response".into(), Value::Num(p.service_response.0)),
        ("p_correct_diagnosis".into(), Value::Num(p.p_correct_diagnosis)),
        ("redundancy".into(), p.redundancy.as_ref().map_or(Value::Null, redundancy_to_value)),
    ])
}

fn params_from_value(v: &Value) -> Result<BlockParams, SpecError> {
    let name = str_field(v, "name", "block params")?;
    let ctx = &format!("block `{name}`");
    let redundancy = match v.get("redundancy") {
        None | Some(Value::Null) => None,
        Some(r) => Some(redundancy_from_value(r, ctx)?),
    };
    Ok(BlockParams {
        part_number: opt_str_field(v, "part_number", ctx)?,
        description: opt_str_field(v, "description", ctx)?,
        quantity: u32_field(v, "quantity", ctx)?,
        min_quantity: u32_field(v, "min_quantity", ctx)?,
        mtbf: Hours(num_field(v, "mtbf", ctx)?),
        transient_fit: Fit(num_field(v, "transient_fit", ctx)?),
        mttr_diagnosis: Minutes(num_field(v, "mttr_diagnosis", ctx)?),
        mttr_corrective: Minutes(num_field(v, "mttr_corrective", ctx)?),
        mttr_verification: Minutes(num_field(v, "mttr_verification", ctx)?),
        service_response: Hours(num_field(v, "service_response", ctx)?),
        p_correct_diagnosis: num_field(v, "p_correct_diagnosis", ctx)?,
        redundancy,
        name,
    })
}

fn redundancy_to_value(r: &RedundancyParams) -> Value {
    Value::Obj(vec![
        ("p_latent_fault".into(), Value::Num(r.p_latent_fault)),
        ("mttdlf".into(), Value::Num(r.mttdlf.0)),
        ("recovery".into(), scenario_to_value(r.recovery)),
        ("failover_time".into(), Value::Num(r.failover_time.0)),
        ("p_spf".into(), Value::Num(r.p_spf)),
        ("spf_recovery_time".into(), Value::Num(r.spf_recovery_time.0)),
        ("repair".into(), scenario_to_value(r.repair)),
        ("reintegration_time".into(), Value::Num(r.reintegration_time.0)),
    ])
}

fn redundancy_from_value(v: &Value, ctx: &str) -> Result<RedundancyParams, SpecError> {
    Ok(RedundancyParams {
        p_latent_fault: num_field(v, "p_latent_fault", ctx)?,
        mttdlf: Hours(num_field(v, "mttdlf", ctx)?),
        recovery: scenario_from_value(get(v, "recovery", ctx)?)?,
        failover_time: Minutes(num_field(v, "failover_time", ctx)?),
        p_spf: num_field(v, "p_spf", ctx)?,
        spf_recovery_time: Minutes(num_field(v, "spf_recovery_time", ctx)?),
        repair: scenario_from_value(get(v, "repair", ctx)?)?,
        reintegration_time: Minutes(num_field(v, "reintegration_time", ctx)?),
    })
}

fn scenario_to_value(s: Scenario) -> Value {
    Value::from(match s {
        Scenario::Transparent => "Transparent",
        Scenario::Nontransparent => "Nontransparent",
    })
}

fn scenario_from_value(v: &Value) -> Result<Scenario, SpecError> {
    match v.as_str() {
        Some("Transparent") => Ok(Scenario::Transparent),
        Some("Nontransparent") => Ok(Scenario::Nontransparent),
        _ => Err(err(format!(
            "scenario must be \"Transparent\" or \"Nontransparent\", got {}",
            v.to_string_compact()
        ))),
    }
}

fn globals_to_value(g: &GlobalParams) -> Value {
    Value::Obj(vec![
        ("reboot_time".into(), Value::Num(g.reboot_time.0)),
        ("mttm".into(), Value::Num(g.mttm.0)),
        ("mttrfid".into(), Value::Num(g.mttrfid.0)),
        ("mission_time".into(), Value::Num(g.mission_time.0)),
    ])
}

fn globals_from_value(v: &Value) -> Result<GlobalParams, SpecError> {
    let ctx = "globals";
    Ok(GlobalParams {
        reboot_time: Minutes(num_field(v, "reboot_time", ctx)?),
        mttm: Hours(num_field(v, "mttm", ctx)?),
        mttrfid: Hours(num_field(v, "mttrfid", ctx)?),
        mission_time: Hours(num_field(v, "mission_time", ctx)?),
    })
}

fn get<'a>(v: &'a Value, key: &str, ctx: &str) -> Result<&'a Value, SpecError> {
    if !matches!(v, Value::Obj(_)) {
        return Err(err(format!("{ctx} must be a JSON object")));
    }
    v.get(key).ok_or_else(|| err(format!("missing field `{key}` in {ctx}")))
}

fn str_field(v: &Value, key: &str, ctx: &str) -> Result<String, SpecError> {
    get(v, key, ctx)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| err(format!("field `{key}` in {ctx} must be a string")))
}

fn opt_str_field(v: &Value, key: &str, ctx: &str) -> Result<Option<String>, SpecError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(err(format!("field `{key}` in {ctx} must be a string or null"))),
    }
}

fn opt_str_to_value(s: &Option<String>) -> Value {
    s.as_deref().map_or(Value::Null, Value::from)
}

fn num_field(v: &Value, key: &str, ctx: &str) -> Result<f64, SpecError> {
    get(v, key, ctx)?
        .as_f64()
        .ok_or_else(|| err(format!("field `{key}` in {ctx} must be a number")))
}

fn u32_field(v: &Value, key: &str, ctx: &str) -> Result<u32, SpecError> {
    get(v, key, ctx)?
        .as_i64()
        .and_then(|i| u32::try_from(i).ok())
        .ok_or_else(|| err(format!("field `{key}` in {ctx} must be an unsigned integer")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> SystemSpec {
        let mut sub = Diagram::new("Server Internals");
        sub.push(
            BlockParams::new("CPU Module", 4, 1)
                .with_part_number("540-1234")
                .with_description("line1\nline2 \"quoted\""),
        );
        let mut root = Diagram::new("Data Center");
        root.push_block(Block::with_subdiagram(BlockParams::new("Server Box", 1, 1), sub));
        root.push(BlockParams::new("Boot Drives", 2, 1));
        SystemSpec::new(root, GlobalParams::default())
    }

    #[test]
    fn roundtrip_preserves_spec() {
        let spec = sample_spec();
        let v = spec_to_value(&spec);
        assert_eq!(spec_from_value(&v).unwrap(), spec);
        // Through text as well, exercising escaping of the description.
        let text = v.to_string_pretty();
        let back = rascad_obs::json::parse(&text).unwrap();
        assert_eq!(spec_from_value(&back).unwrap(), spec);
    }

    #[test]
    fn missing_optional_fields_read_as_none() {
        let spec = sample_spec();
        let mut v = spec_to_value(&spec);
        // Drop "part_number" from every params object.
        fn strip(v: &mut Value) {
            match v {
                Value::Obj(o) => {
                    o.retain(|(k, _)| k != "part_number");
                    for (_, child) in o {
                        strip(child);
                    }
                }
                Value::Arr(a) => a.iter_mut().for_each(strip),
                _ => {}
            }
        }
        strip(&mut v);
        let back = spec_from_value(&v).unwrap();
        assert!(back.root.blocks.iter().all(|b| b.params.part_number.is_none()));
    }

    #[test]
    fn errors_name_field_and_context() {
        let spec = sample_spec();
        let mut v = spec_to_value(&spec);
        if let Value::Obj(o) = &mut v {
            o.retain(|(k, _)| k != "globals");
        }
        let e = spec_from_value(&v).unwrap_err();
        assert!(e.to_string().contains("globals"), "{e}");

        let bad = rascad_obs::json::parse(
            r#"{"p_latent_fault": 0, "mttdlf": 1, "recovery": "Sideways",
                "failover_time": 1, "p_spf": 0, "spf_recovery_time": 1,
                "repair": "Transparent", "reintegration_time": 1}"#,
        )
        .unwrap();
        let e = redundancy_from_value(&bad, "block `X`").unwrap_err();
        assert!(e.to_string().contains("Sideways"), "{e}");
    }
}
